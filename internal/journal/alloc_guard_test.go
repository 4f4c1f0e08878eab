//go:build !race

package journal

import "testing"

// TestCodecAllocations guards the codec's allocation profile (without the
// race detector, whose instrumentation allocates): decoding interns the
// stream's fixed inst/type vocabulary and sizes Records once, so twice the
// records cost no more allocations beyond a small constant; encoding
// allocates its output once, so records add O(1) to what the meta line
// costs.
func TestCodecAllocations(t *testing.T) {
	small, large := capture(t, sampleStream(10_000), KeepAll), capture(t, sampleStream(20_000), KeepAll)
	encodeAllocs := func(j *Journal) float64 {
		return testing.AllocsPerRun(5, func() {
			if _, err := j.Encode(); err != nil {
				t.Fatal(err)
			}
		})
	}
	decodeAllocs := func(j *Journal) float64 {
		data, err := j.Encode()
		if err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(5, func() {
			if _, err := Decode(data); err != nil {
				t.Fatal(err)
			}
		})
	}
	a, b := decodeAllocs(small), decodeAllocs(large)
	t.Logf("Decode: %.0f allocs at 10 000 records, %.0f at 20 000", a, b)
	if b-a > 16 {
		t.Errorf("Decode allocates %.0f times for 10 000 records but %.0f for 20 000: more than 16 allocations scale with the stream", a, b)
	}
	metaOnly := &Journal{Meta: large.Meta}
	a, b = encodeAllocs(metaOnly), encodeAllocs(large)
	t.Logf("Encode: %.0f allocs for the meta line alone, %.0f with 20 000 records", a, b)
	if b-a > 2 {
		t.Errorf("Encode allocates %.0f times for the meta line alone but %.0f with 20 000 records", a, b)
	}
}
