package net

import (
	"fmt"
	"testing"
	"time"
)

// The event-queue layer benchmarks: the queue driven directly, no dispatcher
// goroutine, so the figures are the heap and the slabs and nothing else.
// bench/ prices the same layers inside whole runs (net.timer_ns,
// net.ticker_rearm_ns, net.send_deliver_ns.*).

// benchQueue returns a queue of n processes whose heap holds depth resident
// keys an hour out — crash events, which carry nothing — that never pop while
// a message (at most 200µs out) is queued.
func benchQueue(n, depth int) (*eventQueue, *stepper) {
	q := newEventQueue(n, 1, 0, 200*time.Microsecond, 0)
	for i := 0; i < depth; i++ {
		q.pushCrash(0, int64(time.Hour)+int64(i))
	}
	return q, newStepper(q, nil)
}

// BenchmarkQueuePushPop is one unicast through the queue — pushMessage,
// popStep — at a fixed heap depth.
func BenchmarkQueuePushPop(b *testing.B) {
	for _, depth := range []int{100, 10_000, 100_000} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			q, s := benchQueue(2, depth)
			defer q.close()
			boxes := make([]mailbox, 2)
			msg := Message{To: 1, Type: "m", Instance: "bench"}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				q.pushMessage(msg, boxes)
				popEvent(b, q, s)
			}
		})
	}
}

// BenchmarkQueueBroadcast is one n=200 broadcast into a 40 000-deep heap (the
// decide wave's residency) and the 200 pops that drain it.
func BenchmarkQueueBroadcast(b *testing.B) {
	const n = 200
	q, s := benchQueue(n, n*n)
	defer q.close()
	boxes := make([]mailbox, n)
	tmpl := Message{Type: "decide", Instance: "bench"}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.pushBroadcast(tmpl, boxes)
		for j := 0; j < n; j++ {
			popEvent(b, q, s)
		}
	}
}

// BenchmarkTickerRearm is one tick of one of 200 poll tickers: the pop, the
// fire and the re-arm the dispatcher performs inside Timer.fired.
func BenchmarkTickerRearm(b *testing.B) {
	q, s := benchQueue(200, 0)
	defer q.close()
	for i := 0; i < 200; i++ {
		newTimer(q, time.Millisecond+time.Duration(i), time.Millisecond)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev := popEvent(b, q, s)
		ev.tm.fired(ev.at)
	}
}
