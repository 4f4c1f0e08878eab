package journal

import "testing"

// The journal layer benchmarks: Encode, Decode and Verify of one synthetic
// 40 000-record journal, the length of an n=100 consensus run's. ns/op is
// per journal; divide by 40 000 for the per-record cost. bench/ prices the
// same operations over real runs' journals (journal.*_ns_per_record).

const benchRecords = 40_000

func BenchmarkEncode(b *testing.B) {
	j := capture(b, sampleStream(benchRecords), KeepAll)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := j.Encode(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecode(b *testing.B) {
	data, err := capture(b, sampleStream(benchRecords), KeepAll).Encode()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Decode(data); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkVerify(b *testing.B) {
	j := capture(b, sampleStream(benchRecords), KeepAll)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := j.Verify(); err != nil {
			b.Fatal(err)
		}
	}
}
