package net

import (
	"fmt"
	"testing"
	"time"

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

// BenchmarkTickUnderBroadcastLoad is one poll tick as consensus at n=200
// pays it: one fire of a bound ticker, the grant it wakes, and the task
// parking again — with the 40 000 message keys of a decide wave (every
// process broadcasting once) queued far in the future beside it.
func BenchmarkTickUnderBroadcastLoad(b *testing.B) {
	const n = 200
	nw := NewNetwork(n, WithSeed(1), WithDelays(1000*time.Hour, 2000*time.Hour))
	defer nw.Close()
	nw.Freeze() // the wave is queued before the first tick
	for p := range n {
		nw.Endpoint(model.ProcessID(p)).Instance("wave").Broadcast("decide", nil)
	}
	done := make(chan struct{})
	ep := nw.Endpoint(0)
	nw.Go(ep, "tick", func(t *Task) {
		defer close(done)
		tk := ep.NewTicker(time.Microsecond)
		defer tk.Stop()
		tk.Bind(t)
		for fires := 0; fires < b.N; {
			if tk.TryFire() {
				fires++
				continue
			}
			t.Await(nil)
		}
	})
	b.ResetTimer()
	nw.Thaw()
	<-done
}
