package net

import (
	"fmt"
	"maps"
	"strings"
	"sync"
	"testing"

	"weakestfd/internal/model"
)

func TestClock(t *testing.T) {
	c := NewClock()
	if c.Now() != 0 {
		t.Fatalf("Now = %d", c.Now())
	}
	if c.Tick() != 1 || c.Tick() != 2 || c.Now() != 2 {
		t.Fatalf("Tick sequence wrong")
	}
}

func TestSendAndReceive(t *testing.T) {
	nw := NewNetwork(3, WithSeed(42))
	defer nw.Close()

	ep0, ep1 := nw.Endpoint(0), nw.Endpoint(1)
	inbox := record(ep1, "test")
	ep0.Send(1, "test", "hello", 99)
	waitQuiesced(t, nw)

	got := inbox.snapshot()
	if len(got) != 1 {
		t.Fatalf("delivered %d messages, want 1", len(got))
	}
	msg := got[0]
	if msg.From != 0 || msg.To != 1 || msg.Type != "hello" || msg.Payload.(int) != 99 {
		t.Fatalf("message = %+v", msg)
	}
	if msg.String() != "p0->p1 test/hello" {
		t.Fatalf("String = %q", msg.String())
	}
}

func TestBroadcastReachesAllIncludingSelf(t *testing.T) {
	nw := NewNetwork(4, WithSeed(7))
	defer nw.Close()

	inboxes := make([]*recordingHandler, 4)
	for i := range inboxes {
		inboxes[i] = record(nw.Endpoint(model.ProcessID(i)), "bc")
	}
	nw.Endpoint(2).Broadcast("bc", "ping", nil)
	waitQuiesced(t, nw)

	for i, in := range inboxes {
		got := in.snapshot()
		if len(got) != 1 || got[0].From != 2 || got[0].Type != "ping" {
			t.Fatalf("process %d got %+v", i, got)
		}
	}
}

// Messages delivered before the first TryRecv are buffered: a reader that
// starts after communication has begun loses nothing.
func TestMessagesDeliveredBeforeFirstTryRecvAreBuffered(t *testing.T) {
	nw := NewNetwork(2, WithSeed(3), WithDelays(0, 0))
	defer nw.Close()

	nw.Endpoint(0).Send(1, "late", "m", 1)
	waitQuiesced(t, nw) // delivered before anyone reads
	msg, ok := nw.Endpoint(1).Instance("late").TryRecv()
	if !ok {
		t.Fatalf("buffered message lost")
	}
	if msg.Payload.(int) != 1 {
		t.Fatalf("payload = %v", msg.Payload)
	}
}

func TestInstancesAreIsolated(t *testing.T) {
	nw := NewNetwork(2, WithSeed(5), WithDelays(0, 0))
	defer nw.Close()

	a := record(nw.Endpoint(1), "a")
	b := record(nw.Endpoint(1), "b")
	nw.Endpoint(0).Send(1, "a", "x", nil)
	waitQuiesced(t, nw)

	if got := a.snapshot(); len(got) != 1 {
		t.Fatalf("instance a saw %d messages, want 1", len(got))
	}
	if got := b.snapshot(); len(got) != 0 {
		t.Fatalf("instance b received foreign message %v", got[0])
	}
}

func TestCrashStopsDeliveryAndSending(t *testing.T) {
	nw := NewNetwork(3, WithSeed(11), WithDelays(0, 0))
	defer nw.Close()

	victim := nw.Endpoint(1)
	inbox := record(victim, "x")
	other := record(nw.Endpoint(2), "x")

	nw.Crash(1)
	if !nw.Crashed(1) || !victim.Crashed() {
		t.Fatalf("crash flag not set")
	}
	if victim.ctx.Err() == nil {
		t.Fatalf("context not cancelled on crash")
	}

	// Messages to the crashed process are dropped.
	nw.Endpoint(0).Send(1, "x", "m", nil)
	waitQuiesced(t, nw)
	if got := inbox.snapshot(); len(got) != 0 {
		t.Fatalf("crashed process received %v", got[0])
	}

	// Messages from the crashed process are dropped at the send, never
	// enqueued.
	victim.Send(2, "x", "m", nil)
	if got := other.snapshot(); len(got) != 0 {
		t.Fatalf("message from crashed process delivered: %v", got[0])
	}
	if d := nw.Metrics().Get("msgs.dropped"); d != 2 {
		t.Fatalf("msgs.dropped = %d, want 2", d)
	}

	// The crash is recorded in the failure pattern.
	if !nw.Pattern().Faulty().Contains(1) {
		t.Fatalf("crash not recorded in failure pattern")
	}
	if got := nw.Alive(); !got.Equal(model.NewProcessSet(0, 2)) {
		t.Fatalf("Alive = %v", got)
	}
}

func TestCrashIsIdempotent(t *testing.T) {
	nw := NewNetwork(2)
	defer nw.Close()
	nw.Crash(0)
	first := nw.Pattern().CrashTime(0)
	nw.Crash(0)
	if nw.Pattern().CrashTime(0) != first {
		t.Fatalf("second Crash changed the crash time")
	}
	if nw.Metrics().Get("crashes") != 1 {
		t.Fatalf("crashes counter = %d", nw.Metrics().Get("crashes"))
	}
}

func TestFIFOPerMailboxWithZeroDelay(t *testing.T) {
	// With zero injected delay a single sender's messages to one instance
	// must come out in FIFO order, also when each is delivered before the
	// next is sent (one dispatch cycle per message rather than one burst).
	nw := NewNetwork(2, WithDelays(0, 0))
	defer nw.Close()

	const k = 50
	read := goTask(nw, nw.Endpoint(1), func(task *Task) {
		for i, msg := range recvN(task, "fifo", k) {
			if msg.Payload.(int) != i {
				t.Errorf("out-of-order delivery at %d: got %v", i, msg.Payload)
				return
			}
		}
	})
	for i := 0; i < k; i++ {
		nw.Endpoint(0).Send(1, "fifo", "n", i)
		waitQuiesced(t, nw)
	}
	waitTask(t, read)
}

func TestMetricsCountsSends(t *testing.T) {
	nw := NewNetwork(3, WithDelays(0, 0))
	defer nw.Close()
	m := nw.Metrics()

	nw.Endpoint(0).Broadcast("m", "t", nil)
	waitQuiesced(t, nw)
	if m.Get("msgs.sent") != 3 {
		t.Fatalf("msgs.sent = %d", m.Get("msgs.sent"))
	}
	if m.Get("msgs.sent.m") != 3 {
		t.Fatalf("msgs.sent.m = %d", m.Get("msgs.sent.m"))
	}
	if m.Get("msgs.delivered") != 3 {
		t.Fatalf("msgs.delivered = %d", m.Get("msgs.delivered"))
	}
}

// TestMetricsSnapshotNamesEveryCounter pins the counter names a run's
// Result.Metrics carries — the four network counters, present from the
// start, and one sent counter per instance used — and their values, read
// while plain goroutines send.
func TestMetricsSnapshotNamesEveryCounter(t *testing.T) {
	nw := NewNetwork(3, WithDelays(0, 0))
	defer nw.Close()
	m := nw.Metrics()
	if got, want := m.Snapshot(), map[string]int64{"msgs.sent": 0, "msgs.delivered": 0, "msgs.dropped": 0, "crashes": 0}; !maps.Equal(got, want) {
		t.Fatalf("fresh Snapshot = %v, want %v", got, want)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				nw.Endpoint(0).Send(1, "a", "t", nil)
				m.Snapshot()
			}
		}()
	}
	wg.Wait()
	nw.Endpoint(1).Broadcast("b", "t", nil)
	waitQuiesced(t, nw)
	nw.Crash(2)
	nw.Endpoint(2).Send(0, "a", "t", nil) // dropped: the sender crashed
	want := map[string]int64{"msgs.sent": 203, "msgs.delivered": 203, "msgs.dropped": 1, "crashes": 1, "msgs.sent.a": 200, "msgs.sent.b": 3}
	if got := m.Snapshot(); !maps.Equal(got, want) {
		t.Fatalf("Snapshot = %v, want %v", got, want)
	}
	for name, v := range want {
		if got := m.Get(name); got != v {
			t.Errorf("Get(%q) = %d, want %d", name, got, v)
		}
	}
	for _, name := range []string{"msgs.sent.c", "msgs", "rounds"} {
		if got := m.Get(name); got != 0 {
			t.Errorf("Get(%q) = %d, want 0", name, got)
		}
	}
}

func TestCloseDropsSubsequentSends(t *testing.T) {
	nw := NewNetwork(2, WithDelays(0, 0))
	inbox := record(nw.Endpoint(1), "x")
	nw.Close()
	nw.Endpoint(0).Send(1, "x", "m", nil)
	if got := inbox.snapshot(); len(got) != 0 {
		t.Fatalf("message delivered after Close: %v", got[0])
	}
	if d := nw.Metrics().Get("msgs.dropped"); d != 1 {
		t.Fatalf("msgs.dropped = %d, want 1", d)
	}
	nw.Close() // second Close must be a no-op
}

func TestManyConcurrentSendersStress(t *testing.T) {
	nw := NewNetwork(5, WithSeed(99))
	defer nw.Close()

	const perSender = 40
	var senders sync.WaitGroup
	var readers []<-chan struct{}
	for i := 0; i < 5; i++ {
		ep := nw.Endpoint(model.ProcessID(i))
		readers = append(readers, goTask(nw, ep, func(task *Task) {
			if got := recvN(task, "stress", 5*perSender); len(got) != 5*perSender {
				t.Errorf("%v received %d/%d messages", ep.ID(), len(got), 5*perSender)
			}
		}))
		senders.Add(1)
		go func(id int) {
			defer senders.Done()
			for j := 0; j < perSender; j++ {
				ep.Broadcast("stress", "n", id*1000+j)
			}
		}(i)
	}
	senders.Wait()
	for _, done := range readers {
		waitTask(t, done)
	}
}

// A process count of zero, or one the event queue's keys cannot address, is
// refused with a message naming it — not truncated.
func TestInvalidConstruction(t *testing.T) {
	for _, n := range []int{0, maxProcesses + 1} {
		func() {
			defer func() {
				if msg, _ := recover().(string); !strings.Contains(msg, "process count") {
					t.Errorf("NewNetwork(%d) panicked with %q, want a process-count message", n, msg)
				}
			}()
			NewNetwork(n)
		}()
	}
}

func TestSendOutOfRangePanics(t *testing.T) {
	nw := NewNetwork(2)
	defer nw.Close()
	defer func() {
		if recover() == nil {
			t.Fatalf("send to out-of-range process did not panic")
		}
	}()
	nw.Endpoint(0).Send(5, "x", "m", nil)
}

func TestEndpointAccessors(t *testing.T) {
	nw := NewNetwork(3)
	defer nw.Close()
	ep := nw.Endpoint(2)
	if ep.ID() != 2 || ep.N() != 3 || ep.Clock() != nw.Clock() {
		t.Fatalf("accessors wrong")
	}
	if fmt.Sprint(ep.ID()) != "p2" {
		t.Fatalf("ID string = %v", ep.ID())
	}
}
