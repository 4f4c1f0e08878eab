package net

import (
	"context"
	"fmt"
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
		for _, msg := range drainBox(t, nw, nw.Endpoint(model.ProcessID(p)).Instance("sched")) {
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
	if got := drainBox(t, nw, inst); len(got) != 1 || got[0].Type != "b" {
		t.Fatalf("buffered delivery after Handle(nil): %v", got)
	}
	if got := len(h.snapshot()); got != 1 {
		t.Fatalf("handler saw %d messages after unregistering, want 1", got)
	}
}

// ---- mailbox fast-path edge cases ----

// Pushes interleaved with TryRecv must neither lose nor duplicate messages:
// a goroutine outside the network floods one mailbox while its reader task
// takes at most three messages a step, stepping on a 1µs poll, so the ring
// wraps and grows between the reader's steps. Run under -race this doubles
// as the memory-model check of the lock-free push/tryPop pair: the
// dispatcher and the reader touch the ring only in turn.
func TestPushRacingTryRecvLosesNothing(t *testing.T) {
	nw := NewNetwork(2, WithSeed(5), WithDelays(0, 10*time.Microsecond))
	defer nw.Close()
	inst := nw.Endpoint(1).Instance("race")

	const k = 2000
	seen := make(map[int64]bool, k)
	reader := goTask(nw, nw.Endpoint(1), func(task *Task) {
		ctx := WithTask(context.Background(), task)
		poll := task.ep.NewPoll(ctx, time.Microsecond)
		defer poll.Stop()
		inst.Watch(task)
		defer inst.Watch(nil)
		err := poll.Until(ctx, func(bool) (bool, error) {
			for range 3 {
				msg, ok := inst.TryRecv()
				if !ok {
					break
				}
				if seen[msg.Aux] {
					return true, fmt.Errorf("duplicate delivery of %d", msg.Aux)
				}
				seen[msg.Aux] = true
			}
			return len(seen) == k, nil
		})
		if err != nil {
			t.Error(err)
		}
	})
	src := nw.Endpoint(0).Instance("race")
	for i := 0; i < k; i++ {
		src.SendAux(1, "m", int64(i), 0, nil)
	}
	waitTask(t, reader)
	if len(seen) != k {
		t.Fatalf("received %d/%d messages", len(seen), k)
	}
	if extra := drainBox(t, nw, inst); len(extra) != 0 {
		t.Fatalf("%d messages left over after all %d were read", len(extra), k)
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
	for _, msg := range drainBox(t, nw, sink) {
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
