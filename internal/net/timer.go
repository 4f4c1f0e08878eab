package net

import (
	"context"
	"sync"
	"time"
)

// Timer is a one-shot or periodic timer driven by the network's scheduler.
// It fires when the virtual clock reaches its deadline — instantly in
// wall-clock terms once no earlier event is pending.
//
// A timer has one kind of consumer: a task. Each fire banks one credit and
// wakes the task named by Bind; the task takes credits with TryFire inside
// its Await loop. A fire that pops while no task is bound is banked all the
// same, so a later Bind + TryFire still sees it and virtual time never waits
// on a timer nobody reads.
//
// Timers are created through an Endpoint and stopped automatically when the
// process crashes or the network closes.
type Timer struct {
	q      *eventQueue
	id     uint64 // run-local id (eventQueue.nextLease): the only timer identity the trace hashes
	period int64  // ns; 0 for one-shot

	mu      sync.Mutex
	stopped bool
	owner   *Task // woken per fire; see Bind
	pending int   // fires banked for TryFire
}

func newTimer(q *eventQueue, delay, period time.Duration) *Timer {
	t := &Timer{q: q, id: q.nextLease(), period: int64(period)}
	q.scheduleTimer(t, int64(q.virtualNow())+int64(delay))
	return t
}

// Stop terminates the timer: it never fires again. Credits already banked
// stay consumable. Stop is idempotent and safe to call concurrently with
// fires.
func (t *Timer) Stop() {
	t.mu.Lock()
	t.stopped = true
	t.mu.Unlock()
}

// Bind names the task this timer's fires wake. The task consumes fires with
// the condition-recheck idiom — TryFire inside its Await loop — so it must
// bind before it first parks on the timer; fires that popped earlier are
// already banked and the first TryFire takes them.
func (t *Timer) Bind(task *Task) {
	t.mu.Lock()
	t.owner = task
	t.mu.Unlock()
}

// TryFire consumes one banked fire, reporting whether one was pending. For a
// ticker each fire banks one credit; for a one-shot at most one credit ever
// exists.
func (t *Timer) TryFire() bool {
	t.mu.Lock()
	ok := t.pending > 0
	if ok {
		t.pending--
	}
	t.mu.Unlock()
	return ok
}

// Stopped reports whether the timer is dead: stopped explicitly, or a
// one-shot that has fired.
func (t *Timer) Stopped() bool {
	t.mu.Lock()
	dead := t.stopped
	t.mu.Unlock()
	return dead
}

// fired is called by the dispatcher when one of the timer's heap events pops
// at virtual time at; events of a stopped timer are discarded here. A ticker
// reschedules its next tick, a one-shot is spent. The dispatcher runs the
// woken owner to its next park before popping further events, so virtual
// time cannot outrun the consumer.
func (t *Timer) fired(at int64) {
	t.mu.Lock()
	if t.stopped {
		t.mu.Unlock()
		return
	}
	if t.period > 0 {
		t.q.rearmTimer(t, at+t.period)
	} else {
		t.stopped = true
	}
	t.pending++
	owner := t.owner
	t.mu.Unlock()
	owner.Wake()
}

// VirtualNow returns the network's current virtual time: the timestamp of the
// latest dispatched event.
func (nw *Network) VirtualNow() time.Duration { return nw.q.virtualNow() }

// VirtualNow returns the network's current virtual time.
func (ep *Endpoint) VirtualNow() time.Duration { return ep.net.q.virtualNow() }

// NewTimer returns a one-shot timer owned by this process: it is stopped
// automatically when the process crashes or the network closes.
func (ep *Endpoint) NewTimer(d time.Duration) *Timer {
	t := newTimer(ep.net.q, d, 0)
	ep.adoptTimer(t)
	return t
}

// NewTicker returns a periodic timer owned by this process: it is stopped
// automatically when the process crashes or the network closes.
func (ep *Endpoint) NewTicker(d time.Duration) *Timer {
	t := newTimer(ep.net.q, d, d)
	ep.adoptTimer(t)
	return t
}

// Sleep blocks this process for d of virtual time: instantly in wall-clock
// terms once no earlier event is pending, but ordered after everything the
// network delivers in the meantime. It returns nil after the wait, or the
// first relevant error if ctx is cancelled or the process crashes (a crashed
// process never finishes a sleep).
func (ep *Endpoint) Sleep(ctx context.Context, d time.Duration) error {
	// The sleep is a park point the scheduler can see; a caller outside the
	// task discipline sleeps in a task of its own.
	if TaskFrom(ctx) == nil {
		_, err := RunInTask(ctx, ep, "net.sleep", func(ctx context.Context) (struct{}, error) {
			return struct{}{}, ep.Sleep(ctx, d)
		})
		return err
	}
	t := ep.NewTimer(d)
	defer t.Stop()
	wait := ep.NewWait(ctx)
	t.Bind(wait.task)
	return wait.Until(ctx, func(bool) (bool, error) { return t.TryFire(), nil })
}
