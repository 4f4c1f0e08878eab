package net

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"weakestfd/internal/model"
)

// deliveryOrder sends k messages as one frozen batch from p0 to p1 on a
// fresh network with the given seed and returns the payload order in which
// they came out. Freeze makes the batch atomic: the dispatcher sorts the
// whole batch instead of racing the sender for a prefix of it.
func deliveryOrder(t *testing.T, seed int64, k int) []int {
	t.Helper()
	nw := NewNetwork(2, WithSeed(seed))
	defer nw.Close()
	inbox := record(nw.Endpoint(1), "order")
	nw.Freeze()
	for i := 0; i < k; i++ {
		nw.Endpoint(0).Send(1, "order", "n", i)
	}
	nw.Thaw()
	waitQuiesced(t, nw)
	got := inbox.payloads()
	if len(got) != k {
		t.Fatalf("received only %d/%d messages", len(got), k)
	}
	return got
}

// The virtual-time scheduler's contract: the delivery order of a serially
// enqueued batch is exactly the stable sort of (sampled delay, enqueue-seq).
// The old goroutine-per-message path could not promise this for any seed.
func TestVirtualDeliveryOrderIsSortedByDelayThenSeq(t *testing.T) {
	const k = 500
	for _, seed := range []int64{1, 7, 42, 99, 123456789} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			// Replay the RNG to reconstruct the delays the network drew.
			rng := splitmix64{x: uint64(seed)}
			minD, maxD := int64(0), int64(200*time.Microsecond)
			span := uint64(maxD-minD) + 1
			type exp struct {
				delay int64
				seq   int
			}
			exps := make([]exp, k)
			for i := range exps {
				exps[i] = exp{delay: minD + int64(rng.next()%span), seq: i}
			}
			sort.SliceStable(exps, func(a, b int) bool {
				if exps[a].delay != exps[b].delay {
					return exps[a].delay < exps[b].delay
				}
				return exps[a].seq < exps[b].seq
			})
			want := make([]int, k)
			for i, e := range exps {
				want[i] = e.seq
			}

			got := deliveryOrder(t, seed, k)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("delivery order diverges from (delay, seq) sort at %d: got %d want %d", i, got[i], want[i])
				}
			}
		})
	}
}

// Two runs of the same seeded scenario must produce identical delivery
// orders: the virtual-time scheduler is deterministic where the old
// sleep-based path depended on the whims of the goroutine scheduler.
func TestVirtualDeliveryOrderIsDeterministic(t *testing.T) {
	const k = 400
	for _, seed := range []int64{3, 2024} {
		a := deliveryOrder(t, seed, k)
		b := deliveryOrder(t, seed, k)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("seed %d: runs diverge at position %d: %d vs %d", seed, i, a[i], b[i])
			}
		}
	}
}

// The delivery path must not spawn a goroutine per message: after thousands
// of in-flight sends the goroutine count stays within a small constant of the
// baseline (the dispatcher).
func TestNoGoroutinePerMessage(t *testing.T) {
	nw := NewNetwork(2, WithDelays(0, 100*time.Microsecond))
	defer nw.Close()
	baseline := runtime.NumGoroutine()
	const k = 5000
	for i := 0; i < k; i++ {
		nw.Endpoint(0).Send(1, "flood", "n", i)
	}
	if g := runtime.NumGoroutine(); g > baseline+3 {
		t.Fatalf("goroutines grew from %d to %d with %d in-flight messages", baseline, g, k)
	}
}

// Closing a network with messages still queued must account for them:
// msgs.sent == msgs.delivered + msgs.dropped holds after Close — also when
// the close lands in the middle of a broadcast, whose queued recipients share
// one body slot with the ones already delivered — and the queue lets go of
// every envelope it still held.
func TestCloseBalancesMessageAccounting(t *testing.T) {
	const n, k = 4, 25
	nw := NewNetwork(n)
	nw.Freeze() // hold dispatch so the sends are still in the heap at Close
	for i := 0; i < k; i++ {
		nw.Endpoint(0).Send(1, "bal", "m", i)
	}
	// The broadcast's handler stops the dispatcher inside its second
	// delivery until the test has frozen the queue again.
	h := &pausingHandler{pauseAt: 2, reached: make(chan struct{}), release: make(chan struct{})}
	for p := 0; p < n; p++ {
		nw.Endpoint(model.ProcessID(p)).Instance("half").Handle(h)
	}
	nw.Endpoint(0).Broadcast("half", "b", new(int))
	nw.Thaw()
	<-h.reached
	nw.Freeze()
	close(h.release)
	nw.Close()
	if got := h.seen.Load(); got != 2 {
		t.Fatalf("broadcast reached %d recipients before Close, want 2", got)
	}
	m := nw.Metrics()
	sent, delivered, dropped := m.Get("msgs.sent"), m.Get("msgs.delivered"), m.Get("msgs.dropped")
	if sent != k+n {
		t.Fatalf("msgs.sent = %d, want %d", sent, k+n)
	}
	if sent != delivered+dropped || delivered < 2 || dropped < n-2 {
		t.Fatalf("accounting unbalanced: sent=%d delivered=%d dropped=%d", sent, delivered, dropped)
	}
	if nw.q.heap != nil || nw.q.bodies.slots != nil || nw.q.timers.slots != nil {
		t.Fatalf("closed queue still holds %d keys, %d bodies, %d timers", len(nw.q.heap), len(nw.q.bodies.slots), len(nw.q.timers.slots))
	}
}

// pausingHandler counts deliveries and parks the dispatcher inside delivery
// number pauseAt until release is closed.
type pausingHandler struct {
	pauseAt          int64
	seen             atomic.Int64
	reached, release chan struct{}
}

func (h *pausingHandler) HandleMessage(Message) {
	if h.seen.Add(1) == h.pauseAt {
		close(h.reached)
		<-h.release
	}
}

// Crash on a network constructed without WithLog must not panic: the log
// field is a nil *trace.Log, whose Append is a documented no-op. Regression
// test for the nil-receiver path.
func TestCrashWithoutLogDoesNotPanic(t *testing.T) {
	nw := NewNetwork(2) // note: no WithLog
	defer nw.Close()
	nw.Crash(1)
	if !nw.Crashed(1) {
		t.Fatalf("crash not recorded")
	}
	if !nw.Pattern().Faulty().Contains(1) {
		t.Fatalf("crash missing from failure pattern")
	}
}

// The mailbox ring must wrap, grow, and preserve FIFO across both, with
// consumed slots released.
func TestMailboxRingWrapsAndGrows(t *testing.T) {
	m := new(mailbox) // the zero mailbox is ready to use
	next := 0
	read := func(k int) {
		for i := 0; i < k; i++ {
			msg, ok := m.tryPop()
			if !ok {
				t.Fatalf("mailbox empty at %d", next)
			}
			if msg.Payload.(int) != next {
				t.Fatalf("out of order: got %v want %d", msg.Payload, next)
			}
			next++
		}
	}
	n := 0
	push := func(k int) {
		for i := 0; i < k; i++ {
			m.push(Message{Payload: n})
			n++
		}
	}
	push(10) // within initial capacity
	read(6)
	push(40) // forces growth with a non-zero head: re-linearisation path
	read(30)
	push(100) // forces another doubling after wrap
	read(114)
	if _, ok := m.tryPop(); ok {
		t.Fatalf("drained mailbox still pops")
	}
}

// Events pushed with equal virtual timestamps (zero delay) must come out in
// enqueue order even when interleaved with timestamped traffic.
func TestZeroDelayPreservesSendOrder(t *testing.T) {
	nw := NewNetwork(2, WithDelays(0, 0))
	defer nw.Close()
	inbox := record(nw.Endpoint(1), "fifo")
	const k = 200
	for i := 0; i < k; i++ {
		nw.Endpoint(0).Send(1, "fifo", "n", i)
	}
	waitQuiesced(t, nw)
	got := inbox.payloads()
	if len(got) != k {
		t.Fatalf("received %d/%d messages", len(got), k)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("position %d: got %v", i, v)
		}
	}
}

// The drop-rate → threshold conversion must stay monotone and inside the
// uint64 range across the whole [0, 1] span, in particular for rates just
// below 1: scaling such a rate to the 64-bit comparison space lands within a
// few ULPs of 2⁶⁴, where a rounded-up product would make the float→uint64
// conversion implementation-defined (a threshold of 0 would turn a
// near-total-loss link into a fully reliable one).
func TestDropThresholdEdgeCases(t *testing.T) {
	cases := []struct {
		rate string
		in   float64
		min  uint64 // threshold lower bound
	}{
		{"half", 0.5, 1 << 63},
		{"just-below-one", math.Nextafter(1, 0), ^uint64(0) - 1<<12},
		{"one", 1, ^uint64(0)},
		{"above-one", 1.5, ^uint64(0)},
	}
	for _, tc := range cases {
		got := dropThresholdFor(tc.in)
		if got < tc.min {
			t.Errorf("%s: dropThresholdFor(%g) = %d, want >= %d", tc.rate, tc.in, got, tc.min)
		}
	}
	if a, b := dropThresholdFor(0.3), dropThresholdFor(0.7); a >= b {
		t.Errorf("threshold not monotone: %d (rate 0.3) >= %d (rate 0.7)", a, b)
	}
}

// A drop rate one ULP below 1 must behave as near-total loss, not as a
// reliable link: with the old unclamped conversion a rounded product of
// exactly 2⁶⁴ could yield threshold 0 and deliver everything.
func TestDropRateJustBelowOneDropsMessages(t *testing.T) {
	q := newEventQueue(2, 1, 0, 0, math.Nextafter(1, 0))
	delivered := 0
	for i := 0; i < 200; i++ {
		if q.pushMessage(Message{To: 0}, nil) {
			delivered++
		}
	}
	// P(survive) = 2048/2⁶⁴ per message; even one survivor in 200 sends
	// would be a ~1e-14 event, so any delivery indicates a broken clamp.
	if delivered != 0 {
		t.Fatalf("drop rate just below 1 delivered %d of 200 messages", delivered)
	}
	q.close()
}
