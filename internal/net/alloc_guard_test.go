//go:build !race

package net

import (
	"runtime"
	"testing"
	"time"

	"weakestfd/internal/model"
)

// Allocation-regression guards for the delivery fast path. They run only
// without the race detector (its instrumentation allocates), and CI invokes
// them through the dedicated no-race test step. The ceilings are the
// contract the large-n fast path was built to:
//
//   - steady-state unicast delivery — enqueue, dispatch, mailbox push,
//     TryRecv — allocates nothing once the ring and event heap are warm;
//   - a broadcast enqueue amortises to at most one allocation per call
//     (zero in steady state; the budget of one absorbs a late event-heap
//     doubling when the dispatcher falls behind a sustained storm);
//   - a fresh n=200 network absorbs a whole decide wave — every process
//     broadcasting once, n² queued deliveries — in under 2.5 MB: 24-byte keys
//     in a heap pre-sized for them, one shared envelope per broadcast (the
//     fat-event heap took 10.1 MB for the same wave).

// warmNetwork stands up a 2-process network and runs traffic until the
// mailbox ring and event heap have reached steady-state capacity.
func warmNetwork(t *testing.T) (*Network, Instance, Instance) {
	t.Helper()
	nw := NewNetwork(2, WithSeed(1), WithDelays(0, 10*time.Microsecond))
	t.Cleanup(nw.Close)
	src := nw.Endpoint(0).Instance("guard")
	dst := nw.Endpoint(1).Instance("guard")
	for i := 0; i < 256; i++ {
		src.SendAux(1, "w", int64(i), 0, nil)
	}
	deadline := time.Now().Add(5 * time.Second)
	for got := 0; got < 256; {
		if _, ok := dst.TryRecv(); ok {
			got++
			continue
		}
		if time.Now().After(deadline) {
			t.Fatal("warmup never drained")
		}
	}
	return nw, src, dst
}

func TestSteadyStateDeliveryAllocationFree(t *testing.T) {
	_, src, dst := warmNetwork(t)
	avg := testing.AllocsPerRun(50, func() {
		src.SendAux(1, "m", 7, 0, nil)
		for {
			if _, ok := dst.TryRecv(); ok {
				return
			}
		}
	})
	if avg != 0 {
		t.Fatalf("steady-state delivery allocates %v objects per message, want 0", avg)
	}
}

func TestBroadcastEnqueueAmortisesToOneAllocation(t *testing.T) {
	const n = 50
	nw := NewNetwork(n, WithSeed(1), WithDelays(0, 10*time.Microsecond))
	defer nw.Close()
	// Handler-mode sinks: delivery costs no ring growth and no goroutines,
	// so the measurement isolates the enqueue side.
	sink := nopHandler{}
	for p := 0; p < n; p++ {
		nw.Endpoint(model.ProcessID(p)).Instance("storm").Handle(sink)
	}
	src := nw.Endpoint(0).Instance("storm")
	for i := 0; i < 64; i++ { // warm the event heap
		src.BroadcastAux("w", int64(i), 0, nil)
	}
	avg := testing.AllocsPerRun(200, func() {
		src.BroadcastAux("b", 9, 0, nil)
	})
	if avg > 1 {
		t.Fatalf("broadcast enqueue allocates %v objects per call, want <= 1 amortised", avg)
	}
}

func TestBroadcastStormQueueFootprint(t *testing.T) {
	const n, budget = 200, 2_500_000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	nw := NewNetwork(n, WithSeed(1))
	defer nw.Close()
	nw.Freeze() // keep all n² deliveries queued
	for p := 0; p < n; p++ {
		nw.Endpoint(model.ProcessID(p)).Instance("storm").BroadcastAux("decide", int64(p), 0, nil)
	}
	runtime.ReadMemStats(&after)
	nw.q.mu.Lock()
	queued := len(nw.q.heap)
	nw.q.mu.Unlock()
	if queued != n*n {
		t.Fatalf("%d deliveries queued, want %d", queued, n*n)
	}
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("network plus a queued %d×%d broadcast storm allocated %d bytes", n, n, got)
	if got > budget {
		t.Fatalf("allocated %d bytes, want <= %d", got, budget)
	}
}

type nopHandler struct{}

func (nopHandler) HandleMessage(Message) {}
