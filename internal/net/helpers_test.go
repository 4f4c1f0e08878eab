package net

import (
	"sync"
	"testing"
	"time"
)

// The tests read the network the two ways protocol code does: a Handler the
// dispatcher calls per delivery (recordingHandler), or a Network.Go task on
// Watch + TryRecv and Bind + TryFire (goTask, recvN, awaitFire).

// recordingHandler is a Handler that appends every delivery to a slice.
type recordingHandler struct {
	mu   sync.Mutex
	msgs []Message
	inst Instance // non-zero: reply to every "ping" with a "pong"
}

// record registers a fresh recordingHandler for the instance at ep.
func record(ep *Endpoint, instance string) *recordingHandler {
	h := &recordingHandler{}
	ep.Instance(instance).Handle(h)
	return h
}

func (h *recordingHandler) HandleMessage(msg Message) {
	h.mu.Lock()
	h.msgs = append(h.msgs, msg)
	h.mu.Unlock()
	if h.inst != (Instance{}) && msg.Type == "ping" {
		h.inst.SendAux(msg.From, "pong", msg.Aux, 0, nil)
	}
}

func (h *recordingHandler) snapshot() []Message {
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]Message(nil), h.msgs...)
}

// payloads returns the int payloads recorded so far, in delivery order.
func (h *recordingHandler) payloads() []int {
	msgs := h.snapshot()
	out := make([]int, len(msgs))
	for i, m := range msgs {
		out[i] = m.Payload.(int)
	}
	return out
}

// waitQuiesced blocks until every sent message is accounted for as delivered
// or dropped — the finite workloads of these tests have all landed (handlers
// included: a delivery is counted after its handler returns) once the books
// balance.
func waitQuiesced(t *testing.T, nw *Network) {
	t.Helper()
	m := nw.Metrics()
	deadline := time.Now().Add(5 * time.Second)
	for {
		sent, done := m.Get("msgs.sent"), m.Get("msgs.delivered")+m.Get("msgs.dropped")
		if sent == done {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("network never quiesced: sent=%d accounted=%d", sent, done)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// goTask runs fn as a scheduler-visible task owned by ep; the returned channel
// closes when it has exited. Inside fn the step discipline makes every wait
// exact: the dispatcher pops no event while the task runs, and runs it to its
// next park after each wake.
func goTask(nw *Network, ep *Endpoint, fn func(*Task)) <-chan struct{} {
	done := make(chan struct{})
	nw.Go(ep, "test", func(task *Task) {
		defer close(done)
		fn(task)
	})
	return done
}

// waitTask waits for a goTask to exit. The step discipline makes the wait
// exact, so the bound only turns a lost fire or delivery into a named failure
// instead of a package-level go test timeout.
func waitTask(t *testing.T, done <-chan struct{}) {
	t.Helper()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("test task never exited: a fire or delivery it waits for was lost")
	}
}

// inTask is goTask that waits for the task to exit.
func inTask(t *testing.T, nw *Network, ep *Endpoint, fn func(*Task)) {
	t.Helper()
	waitTask(t, goTask(nw, ep, fn))
}

// awaitFire binds tm to task and parks until it banks a fire, which it
// consumes. It reports false if the process died first.
func awaitFire(task *Task, tm *Timer) bool {
	tm.Bind(task)
	for !tm.TryFire() {
		if task.ep.ctx.Err() != nil {
			return false
		}
		task.Await(nil)
	}
	return true
}

// recvN reads k messages of the instance at the task's process through
// Watch + TryRecv, parking between deliveries.
func recvN(task *Task, instance string, k int) []Message {
	in := task.ep.Instance(instance)
	in.Watch(task)
	defer in.Watch(nil)
	got := make([]Message, 0, k)
	for len(got) < k && task.ep.ctx.Err() == nil {
		if m, ok := in.TryRecv(); ok {
			got = append(got, m)
			continue
		}
		task.Await(nil)
	}
	return got
}

// drainBox returns every message buffered for the instance, read by a task
// at its process: TryRecv is for tasks only.
func drainBox(t *testing.T, nw *Network, in Instance) []Message {
	t.Helper()
	var got []Message
	inTask(t, nw, in.ep, func(*Task) {
		for m, ok := in.TryRecv(); ok; m, ok = in.TryRecv() {
			got = append(got, m)
		}
	})
	return got
}

// White-box queue access, for tests that drive an eventQueue no dispatcher
// drains.

// popEvent pops the next event. The caller knows the queue is non-empty, so
// popStep cannot block.
func popEvent(t testing.TB, q *eventQueue, s *stepper) event {
	t.Helper()
	var ev event
	if _, res := q.popStep(s, &ev); res != stepEvent {
		t.Fatalf("popStep = %v on a non-empty open queue, want stepEvent", res)
	}
	return ev
}

// live is the number of slab slots in use.
func (s *slab[T]) live() int { return len(s.slots) - len(s.free) }

// queued is the number of keys in both heaps. Caller holds q.mu, or knows
// no dispatcher drains the queue.
func (q *eventQueue) queued() int { return len(q.heap) + len(q.theap) }
