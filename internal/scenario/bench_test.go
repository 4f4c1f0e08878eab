package scenario

import (
	"context"
	"testing"
	"time"
)

// The scenario benchmarks with no counterpart among bench/'s workloads and
// layers: the amortised multi-instance workload and the price of capturing
// the record stream.

// BenchmarkMultiConsensus is the amortised workload: per iteration one
// 5-process cluster is stood up and 16 consensus instances run back to back
// on it, so ns/round approaches the protocol's own round trip rather than
// cluster setup.
func BenchmarkMultiConsensus(b *testing.B) {
	const rounds = 16
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if res := New(5, WithSeed(int64(i+1))).Run(ctx, MultiConsensus{Rounds: rounds}); !res.Verdict.OK {
			b.Fatalf("run %d: %v", i, res.Verdict)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*rounds), "ns/round")
}

// minCaptureRuns is the fewest iterations at which BenchmarkCaptureOverhead
// holds its ratios to their ceilings; a smoke run (-benchtime=1x) reports
// them without judging them.
const minCaptureRuns = 100

// BenchmarkCaptureOverhead prices capturing the record stream at emit time.
// Every iteration runs the same seeded consensus run at n=10 three times —
// plain (traced, nothing captured), with the journal recorder, with the
// probe fold — interleaved, so machine drift hits all three alike. It
// reports each capture's run time over the plain run's and, from
// minCaptureRuns iterations on, fails a ratio past its ceiling: the journal
// appends one struct per record on the already serialised recorder path
// (≤1.5x), the probe fold buckets integers per record (≤1.2x). Check the
// ceilings with
//
//	go test ./internal/scenario -run '^$' -bench CaptureOverhead -benchtime 1000x
func BenchmarkCaptureOverhead(b *testing.B) {
	variants := []struct {
		unit    string
		opts    []Option
		ceiling float64
	}{
		{"plain-ns/run", nil, 0},
		{"journal-x", []Option{WithJournal(JournalAll)}, 1.5},
		{"probe-x", []Option{WithProbes()}, 1.2},
	}
	ctx := context.Background()
	spent := make([]time.Duration, len(variants))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for v, variant := range variants {
			s := New(10, append([]Option{WithSeed(int64(i + 1))}, variant.opts...)...)
			start := time.Now()
			res := s.Run(ctx, Consensus{})
			spent[v] += time.Since(start)
			if !res.Verdict.OK {
				b.Fatalf("run %d (%s): %v", i, variant.unit, res.Verdict)
			}
		}
	}
	b.ReportMetric(float64(spent[0].Nanoseconds())/float64(b.N), variants[0].unit)
	for v, variant := range variants[1:] {
		ratio := float64(spent[v+1]) / float64(spent[0])
		b.ReportMetric(ratio, variant.unit)
		if b.N >= minCaptureRuns && ratio > variant.ceiling {
			b.Errorf("%s = %.2f over %d runs, past the %.1fx ceiling", variant.unit, ratio, b.N, variant.ceiling)
		}
	}
}
