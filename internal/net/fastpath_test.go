package net

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"weakestfd/internal/model"
)

// ---- batched vs serial broadcast: white-box schedule equality ----

// serialBroadcast is the reference the batched fast path is checked against:
// the n-call per-recipient loop (n queue-lock acquisitions, n pushMessage
// calls) that pushBroadcast replaces.
func serialBroadcast(ep *Endpoint, instance, typ string, payload any) {
	st := ep.net.intern(instance)
	for i := 0; i < ep.net.n; i++ {
		ep.net.sendTo(st, ep.id, model.ProcessID(i), typ, 0, 0, payload)
	}
}

// broadcastSchedule drives a fixed mixed workload — broadcasts from rotating
// senders interleaved with unicasts — on a fresh network and returns, per
// recipient, the exact delivery sequence as "from/type@sentAt" strings. With
// serial set, every broadcast goes through the serialBroadcast reference.
func broadcastSchedule(t *testing.T, seed int64, drop float64, serial bool) [][]string {
	t.Helper()
	const n, rounds = 5, 12
	nw := NewNetwork(n, WithSeed(seed), WithDropRate(drop))
	defer nw.Close()
	nw.Freeze()
	for r := 0; r < rounds; r++ {
		if sender := nw.Endpoint(model.ProcessID(r % n)); serial {
			serialBroadcast(sender, "sched", "b", r)
		} else {
			sender.Broadcast("sched", "b", r)
		}
		nw.Endpoint(model.ProcessID((r+1)%n)).Send(model.ProcessID((r+2)%n), "sched", "u", r)
	}
	nw.Thaw()
	// Let the dispatcher drain, then collect what each recipient saw. The
	// workload is finite, so a quiescent queue means delivery is complete.
	waitQuiesced(t, nw)
	out := make([][]string, n)
	for p := 0; p < n; p++ {
		in := nw.Endpoint(model.ProcessID(p)).Instance("sched")
		for {
			msg, ok := in.TryRecv()
			if !ok {
				break
			}
			out[p] = append(out[p], fmt.Sprintf("%v/%s@%d", msg.From, msg.Type, msg.SentAt))
		}
	}
	return out
}

// The batched broadcast enqueue must produce byte-for-byte the schedule of
// the serial per-recipient loop: same RNG draws in the same order (drop draw
// first where links are lossy, then the delay draw), same (time, seq) slots.
func TestBatchedBroadcastMatchesSerialSchedule(t *testing.T) {
	for _, drop := range []float64{0, 0.3} {
		for _, seed := range []int64{1, 7, 42, 99} {
			t.Run(fmt.Sprintf("drop=%v/seed=%d", drop, seed), func(t *testing.T) {
				batched := broadcastSchedule(t, seed, drop, false)
				serial := broadcastSchedule(t, seed, drop, true)
				if len(batched) != len(serial) {
					t.Fatalf("recipient counts differ: %d vs %d", len(batched), len(serial))
				}
				for p := range batched {
					if got, want := fmt.Sprint(batched[p]), fmt.Sprint(serial[p]); got != want {
						t.Fatalf("recipient %d schedules diverge:\nbatched: %s\nserial:  %s", p, got, want)
					}
				}
			})
		}
	}
}

// ---- handler-mode delivery ----

// Handler mode delivers synchronously in schedule order, bypassing the ring,
// and a handler may send (sends only enqueue, so the dispatcher never
// deadlocks on its own delivery).
func TestHandlerModeDeliversInOrderAndMaySend(t *testing.T) {
	nw := NewNetwork(2, WithSeed(3))
	defer nw.Close()
	server := nw.Endpoint(1).Instance("rpc")
	h := &recordingHandler{inst: server}
	server.Handle(h)
	client := nw.Endpoint(0).Instance("rpc")
	replies := record(nw.Endpoint(0), "rpc")

	const k = 50
	for i := 0; i < k; i++ {
		client.SendAux(1, "ping", int64(i), 0, nil)
	}
	// A handler's sends are counted before its own delivery is, so the books
	// balance only once every pong has landed too.
	waitQuiesced(t, nw)
	seen := make(map[int64]bool, k)
	for _, msg := range replies.snapshot() {
		if msg.Type != "pong" {
			t.Fatalf("unexpected reply type %q", msg.Type)
		}
		seen[msg.Aux] = true
	}
	if len(seen) != k {
		t.Fatalf("distinct replies = %d, want %d", len(seen), k)
	}
	if got := len(h.snapshot()); got != k {
		t.Fatalf("handler saw %d messages, want %d", got, k)
	}
}

// A nil Handle restores buffered delivery: messages pushed after the reset
// land in the ring and are readable through TryRecv.
func TestHandlerNilRestoresBuffering(t *testing.T) {
	nw := NewNetwork(2, WithSeed(4))
	defer nw.Close()
	inst := nw.Endpoint(1).Instance("hb")
	h := record(nw.Endpoint(1), "hb")
	nw.Endpoint(0).Instance("hb").Send(1, "a", nil)
	waitQuiesced(t, nw)
	if got := len(h.snapshot()); got != 1 {
		t.Fatalf("handler saw %d messages, want 1", got)
	}
	inst.Handle(nil)
	nw.Endpoint(0).Instance("hb").Send(1, "b", nil)
	waitQuiesced(t, nw)
	msg, ok := inst.TryRecv()
	if !ok || msg.Type != "b" {
		t.Fatalf("buffered delivery after Handle(nil): ok=%v msg=%v", ok, msg)
	}
	if got := len(h.snapshot()); got != 1 {
		t.Fatalf("handler saw %d messages after unregistering, want 1", got)
	}
}

// ---- mailbox fast-path edge cases ----

// Concurrent pushes racing TryRecv from several consumer goroutines must
// neither lose nor duplicate messages. Run under -race this doubles as the
// memory-model check of the lock-light push/tryPop pair.
func TestPushRacingTryRecvLosesNothing(t *testing.T) {
	nw := NewNetwork(2, WithSeed(5), WithDelays(0, 10*time.Microsecond))
	defer nw.Close()
	inst := nw.Endpoint(1).Instance("race")

	const k = 2000
	var got sync.Map
	var count atomic.Int64
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if msg, ok := inst.TryRecv(); ok {
					if _, dup := got.LoadOrStore(msg.Aux, true); dup {
						t.Errorf("duplicate delivery of %d", msg.Aux)
						return
					}
					count.Add(1)
					continue
				}
				select {
				case <-stop:
					// stop closes only after every message is pushed, so an
					// empty ring here means the rest is in other workers'
					// hands or already counted; anything pushed between our
					// last look and the close is caught by the main
					// goroutine's final drain.
					return
				default:
				}
			}
		}()
	}
	src := nw.Endpoint(0).Instance("race")
	for i := 0; i < k; i++ {
		src.SendAux(1, "m", int64(i), 0, nil)
	}
	waitQuiesced(t, nw)
	close(stop)
	wg.Wait()
	// Drain whatever the workers' final sweeps left behind.
	for {
		if _, ok := inst.TryRecv(); !ok {
			break
		}
		count.Add(1)
	}
	if count.Load() != k {
		t.Fatalf("received %d/%d messages", count.Load(), k)
	}
}

// A 1000-sender fan-in floods one mailbox far past its initial ring: the
// ring must wrap and grow without reordering (zero delay keeps the schedule
// at pure enqueue order, so FIFO per sender is checkable exactly).
func TestLargeFanInRingGrowthKeepsPerSenderFIFO(t *testing.T) {
	const n, per = 1000, 3
	nw := NewNetwork(n, WithSeed(6), WithDelays(0, 0))
	defer nw.Close()
	sink := nw.Endpoint(0).Instance("fanin")
	nw.Freeze()
	for r := 0; r < per; r++ {
		for p := 1; p < n; p++ {
			nw.Endpoint(model.ProcessID(p)).Instance("fanin").SendAux(0, "m", int64(r), 0, nil)
		}
	}
	nw.Thaw()
	waitQuiesced(t, nw)
	last := make(map[int]int64, n)
	total := 0
	for {
		msg, ok := sink.TryRecv()
		if !ok {
			break
		}
		total++
		from := int(msg.From)
		if prev, seen := last[from]; seen && msg.Aux <= prev {
			t.Fatalf("per-sender FIFO broken for p%d: %d after %d", from, msg.Aux, prev)
		}
		last[from] = msg.Aux
	}
	if want := (n - 1) * per; total != want {
		t.Fatalf("received %d/%d messages", total, want)
	}
}
