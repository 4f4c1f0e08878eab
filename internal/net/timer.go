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
// Tasks consume fires through Bind and TryFire. C is for consumers outside
// the task discipline (raw-network tests): it receives the virtual time at
// which the timer fired. The channel is unbuffered and fed with backpressure:
// the dispatcher will not advance virtual time past a fire that its consumer
// has not yet taken, for any timer in the network, so virtual time cannot
// gallop ahead of the goroutines it drives.
//
// Timers created through an Endpoint are stopped automatically when the
// process crashes or the network closes; a C consumer that stops receiving
// must call Stop, or virtual time freezes for the whole network.
//
// A Timer is a lease on a pooled core: the struct and channels behind it are
// recycled once the timer is stopped (or a one-shot has fired and been
// consumed). After Stop returns, or after a one-shot's single fire has been
// received, C must not be received from again — the channel may already be
// feeding a later lease.
type Timer struct {
	C <-chan time.Duration

	core *timerCore
	gen  uint64
}

// timerFire is one fire handed from the dispatcher to a core's feeder.
type timerFire struct {
	at  int64
	gen uint64
}

// timerCore is the pooled machinery behind a Timer lease: the consumer
// channel, the dispatcher→feeder fire channel and the stop signal are
// allocated once and reused across leases. gen identifies the current lease;
// heap events and fires carry the gen they were scheduled under, so anything
// left over from a dead lease is discarded instead of cross-talking.
type timerCore struct {
	c       chan time.Duration
	fire    chan timerFire // dispatcher -> feeder, capacity 1
	stopSig chan struct{}  // Stop -> feeder, capacity 1

	mu      sync.Mutex
	q       *eventQueue
	gen     uint64
	leaseID uint64 // run-local id of the current lease (eventQueue.nextLease)
	period  int64  // ns; 0 for one-shot
	stopped bool

	// Task binding (Timer.Bind): when owner is set, a fire wakes the owner
	// task and increments pending for Timer.TryFire instead of feeding the
	// channel — no feeder handoff, no outstanding-count backpressure; the
	// scheduler's grant discipline paces virtual time exactly.
	owner   *Task
	pending int
}

// timerCorePool is a global freelist of timer cores. A parked core keeps its
// feeder goroutine alive (blocked in select, consuming nothing): leasing a
// pooled core therefore spawns no goroutine and allocates only the Timer
// handle. When the pool is full a released core is dropped for the GC, and
// its feeder exits.
type timerCorePool struct {
	mu   sync.Mutex
	free []*timerCore
}

const timerCorePoolCap = 4096

var timerCores timerCorePool

func (p *timerCorePool) get() *timerCore {
	p.mu.Lock()
	if n := len(p.free); n > 0 {
		tc := p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
		p.mu.Unlock()
		return tc
	}
	p.mu.Unlock()
	tc := &timerCore{
		c:       make(chan time.Duration),
		fire:    make(chan timerFire, 1),
		stopSig: make(chan struct{}, 1),
	}
	go tc.feed()
	return tc
}

// put parks the core, reporting whether it was kept; on false the caller's
// feeder must exit, the core is garbage.
func (p *timerCorePool) put(tc *timerCore) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.free) >= timerCorePoolCap {
		return false
	}
	p.free = append(p.free, tc)
	return true
}

func newTimer(q *eventQueue, delay, period time.Duration) *Timer {
	tc := timerCores.get()
	tid := q.nextLease()
	tc.mu.Lock()
	tc.q = q
	tc.gen++
	tc.leaseID = tid
	tc.period = int64(period)
	tc.stopped = false
	gen := tc.gen
	tc.mu.Unlock()
	t := &Timer{C: tc.c, core: tc, gen: gen}
	q.scheduleTimer(tc, int64(q.virtualNow())+int64(delay), gen, tid)
	return t
}

// Stop terminates the timer. It never fires again, and a feeder blocked on an
// unconsumed fire is released. Stop is idempotent and safe to call
// concurrently with fires.
func (t *Timer) Stop() { t.core.stopLease(t.gen) }

// Bind routes this timer's fires to a task: instead of feeding the C channel
// (with its backpressure on virtual time), each fire wakes the task and banks
// one TryFire credit. The task consumes fires with the condition-recheck
// idiom — TryFire inside its Await loop. Bind must be called before the first
// fire can pop: by the task that created the timer during one of its own
// granted steps, or by a freshly spawned task on its first step (grants beat
// events) for a timer created before dispatch could reach its deadline. A
// bound timer's C must not be received from.
func (t *Timer) Bind(task *Task) {
	tc := t.core
	tc.mu.Lock()
	if tc.gen == t.gen && !tc.stopped {
		tc.owner = task
	}
	tc.mu.Unlock()
}

// TryFire consumes one banked fire of a bound timer, reporting whether one
// was pending. For a ticker each fire banks one credit; for a one-shot at
// most one credit ever exists.
func (t *Timer) TryFire() bool {
	tc := t.core
	tc.mu.Lock()
	ok := tc.gen == t.gen && tc.pending > 0
	if ok {
		tc.pending--
	}
	tc.mu.Unlock()
	return ok
}

// Stopped reports whether the timer is dead: stopped explicitly, spent (a
// delivered one-shot), or already recycled into a later lease.
func (t *Timer) Stopped() bool {
	tc := t.core
	tc.mu.Lock()
	dead := tc.gen != t.gen || tc.stopped
	tc.mu.Unlock()
	return dead
}

func (tc *timerCore) stopLease(gen uint64) {
	tc.mu.Lock()
	if gen != tc.gen || tc.stopped {
		tc.mu.Unlock()
		return
	}
	tc.stopped = true
	// The lease is live, so its feeder is running and consumes the signal
	// before exiting; the channel (capacity 1) is therefore free.
	select {
	case tc.stopSig <- struct{}{}:
	default:
	}
	tc.mu.Unlock()
}

// fired is called by the dispatcher when a timer heap event pops. at is the
// virtual fire time, gen the lease the event was scheduled under; events of a
// dead lease are discarded here.
//
// A periodic timer reschedules eagerly, before its consumer has taken the
// fire: for a channel-fed timer the next tick sits in the heap while the
// previous one counts as outstanding, so the clock freezes — for the whole
// network — until the slowest tick consumer has caught up.
//
// The fire is pushed while still holding the core's mutex: a concurrent Stop
// serialises either entirely before (and the push is skipped) or entirely
// after (and the live feeder drains the fire on exit), so an outstanding
// count can never be stranded with no feeder to release it.
func (tc *timerCore) fired(at int64, gen uint64) {
	tc.mu.Lock()
	if gen != tc.gen || tc.stopped {
		tc.mu.Unlock()
		return
	}
	if tc.period > 0 {
		tc.q.scheduleTimer(tc, at+tc.period, gen, tc.leaseID)
	}
	if tc.owner != nil {
		// Task-bound: bank a TryFire credit and wake the owner.
		// No outstanding count — the dispatcher delivers timer fires one at a
		// time and runs the woken task to its next park before popping
		// further events, so virtual time cannot outrun the consumer.
		tc.pending++
		owner := tc.owner
		tc.mu.Unlock()
		owner.Wake()
		return
	}
	tc.q.outstanding.Add(1)
	select {
	case tc.fire <- timerFire{at: at, gen: gen}:
	default:
		// The channel is free here — popStep waits out this core's
		// outstanding fire before popping its next one — so this branch only
		// keeps a broken invariant from blocking the dispatcher under the
		// core's mutex: the tick is dropped and its count released.
		tc.q.fireDone()
	}
	tc.mu.Unlock()
}

// feed is the core's persistent feeder: it forwards fires to the consumer
// with backpressure across successive leases, parking the core back on the
// freelist at each lease's end. The goroutine outlives leases (that is what
// makes re-leasing a pooled core allocation- and spawn-free) and exits only
// when the full pool drops the core.
//
// A parked core's channels are empty (endLease drains them with the lease
// already marked stopped, so nothing can be sent concurrently), which is the
// invariant that lets the feeder block on the same select whether the core is
// leased or parked.
func (tc *timerCore) feed() {
	for {
		select {
		case f := <-tc.fire:
			tc.mu.Lock()
			q := tc.q
			live := f.gen == tc.gen && !tc.stopped
			period := tc.period
			tc.mu.Unlock()
			if !live {
				// The lease died between fired's push and here (Stop won the
				// race): release the outstanding count and wait for the stop
				// token that is on its way.
				q.fireDone()
				continue
			}
			select {
			case tc.c <- time.Duration(f.at):
				q.fireDone()
				if period == 0 {
					// A delivered one-shot is spent: the lease ends here.
					tc.mu.Lock()
					tc.stopped = true
					tc.mu.Unlock()
					if !tc.endLease(q) {
						return
					}
				}
			case <-tc.stopSig:
				q.fireDone()
				if !tc.endLease(q) {
					return
				}
			}
		case <-tc.stopSig:
			tc.mu.Lock()
			q := tc.q
			tc.mu.Unlock()
			if !tc.endLease(q) {
				return
			}
		}
	}
}

// endLease drains lease residue, invalidates the lease and parks the core on
// the freelist, reporting whether the core was kept (false: pool full, the
// feeder must exit). The lease is already marked stopped on every path that
// gets here, so neither fired nor stopLease can send a new token between the
// drain and the gen bump. Pending heap events of the old lease are discarded
// by fired's gen check, which never touches q, so clearing it here cannot
// race them.
func (tc *timerCore) endLease(q *eventQueue) bool {
	select {
	case <-tc.fire:
		q.fireDone()
	default:
	}
	select {
	case <-tc.stopSig:
	default:
	}
	tc.mu.Lock()
	tc.gen++
	tc.leaseID = 0
	tc.stopped = true
	tc.q = nil
	tc.owner = nil
	tc.pending = 0
	tc.mu.Unlock()
	return timerCores.put(tc)
}

// VirtualNow returns the network's current virtual time: the timestamp of the
// latest dispatched event.
func (nw *Network) VirtualNow() time.Duration { return nw.q.virtualNow() }

// NewTimer returns a timer that fires once after d of virtual time. The
// caller owns it and must Stop it if it abandons C before the fire.
func (nw *Network) NewTimer(d time.Duration) *Timer { return newTimer(nw.q, d, 0) }

// NewTicker returns a timer that fires every d of virtual time. The caller
// must Stop it.
func (nw *Network) NewTicker(d time.Duration) *Timer { return newTimer(nw.q, d, d) }

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
	// task discipline is adopted for its span. The timer is created and bound
	// during one of our own granted steps, so its fire cannot pop before the
	// binding is visible.
	ctx, release := AdoptTask(ctx, ep, "net.sleep")
	defer release()
	task := TaskFrom(ctx)
	t := ep.NewTimer(d)
	defer t.Stop()
	t.Bind(task)
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		if err := ep.ctx.Err(); err != nil {
			return err
		}
		if t.TryFire() {
			return nil
		}
		task.Await(ctx)
	}
}
