package net

import (
	"fmt"
	"testing"

	"weakestfd/internal/model"
)

// BenchmarkGrantRoundRobin is the grant handoff at scale: n tasks, one per
// process, pass a turn around a ring, so every grant is one Wake, one resume
// by the dispatcher and one park, with n-1 other tasks parked beside it.
// bench/'s net.grant_ns prices the same handoff with two tasks; the n=200
// figure is the one consensus_n200 pays some 40 000 times a run.
func BenchmarkGrantRoundRobin(b *testing.B) {
	for _, n := range []int{2, 16, 200} {
		b.Run(fmt.Sprintf("tasks=%d", n), func(b *testing.B) {
			nw := NewNetwork(n, WithSeed(1))
			defer nw.Close()
			// turn and left are only touched by the tasks, whose steps the
			// dispatcher serializes.
			turn, left := 0, b.N
			done := make(chan struct{})
			tasks := make([]*Task, n)
			nw.Freeze() // every task exists before the first takes a step
			for i := range tasks {
				tasks[i] = nw.Go(nw.Endpoint(model.ProcessID(i)), "rr", func(t *Task) {
					for left > 0 {
						if turn != i {
							t.Await(nil)
							continue
						}
						if left--; left == 0 {
							close(done)
						}
						turn = (i + 1) % n
						tasks[turn].Wake()
					}
				})
			}
			b.ResetTimer()
			nw.Thaw()
			<-done
			b.StopTimer()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/grant")
		})
	}
}
