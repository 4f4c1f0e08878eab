package net

import (
	"math"
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"weakestfd/internal/model"
)

// eventKind discriminates the things the scheduler delivers: message
// deliveries, timer fires and scheduled crashes.
type eventKind uint8

const (
	evMessage eventKind = iota
	evTimer
	evCrash
)

// event is one delivery as the dispatcher sees it, materialised by popStep
// from the popped heap key and what the key names: at is the
// virtual-nanosecond delivery time, seq the enqueue sequence number. A
// message event carries the envelope and the mailbox it resolves to, interned
// at enqueue time, so the dispatcher delivers without any per-message map
// lookup. A timer event carries its timer. A crash event reuses msg.To as the
// crashing process. Events exist one at a time, on the dispatcher's stack;
// what waits in the queue is a heapKey.
type event struct {
	at     int64
	seq    uint64
	kind   eventKind
	sentAt int64 // message events: the enqueue-time base (at - sentAt is the drawn delay)
	msg    Message
	tm     *Timer
	box    *mailbox
}

// heapKey is what the priority queue orders and sifts: the unique (at, seq)
// pair plus two 32-bit words naming what the event carries. It is 24 bytes
// and pointer-free, so a sift level moves three words the collector never
// scans, and the n² keys of a 200-process decide wave stay under 1 MB.
//
// ref is the message-body slot of a message key and the timer-table slot of
// a timer key. kp packs the event kind into the top keyKindBits bits and a
// process index into the rest: the recipient of a message, the process a
// crash event kills.
type heapKey struct {
	at  int64
	seq uint64
	ref uint32
	kp  uint32
}

const (
	keyKindBits = 2
	keyProcBits = 32 - keyKindBits
	// maxProcesses is the largest process count whose ids fit a key's
	// process field.
	maxProcesses = 1 << keyProcBits
)

func makeKey(at int64, seq uint64, kind eventKind, ref uint32, proc int) heapKey {
	return heapKey{at: at, seq: seq, ref: ref, kp: uint32(kind)<<keyProcBits | uint32(proc)}
}

func (k *heapKey) kind() eventKind { return eventKind(k.kp >> keyProcBits) }
func (k *heapKey) proc() int       { return int(k.kp & (maxProcesses - 1)) }

// less orders keys by (at, seq). seq is unique per queue, so the order is
// total and a pure function of the keys: no layout of the heap array or of
// the slabs can change which event pops next.
func (k *heapKey) less(o *heapKey) bool {
	if k.at != o.at {
		return k.at < o.at
	}
	return k.seq < o.seq
}

// msgBody is what a queued message key names: the envelope, stored once
// however many recipients share it. A unicast owns its body (refs 1) and
// delivers to boxes[msg.To]. A broadcast's surviving recipients share one:
// msg.SentAt holds the first recipient's logical send time, and recipient i's
// To, SentAt = first+i and mailbox &boxes[i] are recomputed from the key's
// process index at pop.
type msgBody struct {
	msg    Message
	sentAt int64     // enqueue-time virtual clock (at - sentAt is the drawn delay)
	boxes  []mailbox // the instance's mailboxes, indexed by recipient
	refs   uint32    // queued keys still naming this slot
	bcast  bool
}

// slab is a recycled array of T addressed by 32-bit slot numbers, so heap
// keys can name a value without holding a pointer. A released slot is zeroed
// (dropping whatever it referenced) and reused before the array grows.
type slab[T any] struct {
	slots []T
	free  []uint32
}

func (s *slab[T]) put(v T) uint32 {
	if n := len(s.free); n > 0 {
		i := s.free[n-1]
		s.free = s.free[:n-1]
		s.slots[i] = v
		return i
	}
	s.slots = append(s.slots, v)
	return uint32(len(s.slots) - 1)
}

func (s *slab[T]) release(i uint32) {
	var zero T
	s.slots[i] = zero
	s.free = append(s.free, i)
}

// splitmix64 is the cheap, statistically solid PRNG used to draw message
// delays. It lives inside the event queue and is only touched under the
// queue's lock, so there is no separate RNG mutex on the send path.
type splitmix64 struct{ x uint64 }

func (s *splitmix64) next() uint64 {
	s.x += 0x9e3779b97f4a7c15
	z := s.x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// eventQueue is the discrete-event core of the network: two min-heaps of
// (at, seq) keys drained by a single dispatcher goroutine — one for message
// and crash keys, one for timer keys — beside the two slabs holding what the
// keys name: message bodies and timers. Timer fires are most of a run's
// events, and keeping their keys apart means a tick pops from a heap bounded
// by the number of live timers, not from under a broadcast wave's n² message
// keys. seq is unique per queue, so taking whichever head is earlier by
// (at, seq) pops exactly the order one merged heap would.
//
// The queue never waits in wall-clock time: popping an event advances the
// virtual clock to the event's timestamp, so a 200µs injected delay reorders
// messages exactly as it would in real time but costs nothing. Message events are stamped now+delay, so a delay
// larger than a timer deadline really does land after that timer fires —
// delay distributions keep their adversarial meaning. During a Freeze the
// clock is still, so a frozen batch shares one base time and its delivery
// order is exactly the order obtained by sorting (delay, enqueue-seq) —
// deterministic given a seed, independent of goroutine scheduling. Timer
// events carry absolute virtual deadlines and are what actually moves the
// virtual clock forward.
//
// mu is also the one lock between the step path and the goroutines outside
// it: the ready queue of tasks awaiting a grant, and the wakes and aborts
// such goroutines post (see post), live here. Everything else the step path
// touches — task and timer state, mailboxes — belongs to the dispatcher and
// the task it is running, and takes no lock.
type eventQueue struct {
	mu      sync.Mutex
	heap    keyHeap       // message and crash keys
	theap   keyHeap       // timer keys: one per queued fire, so bounded by live timers
	bodies  slab[msgBody] // envelopes of the queued message keys
	timers  slab[*Timer]  // timers of the queued timer keys
	seq     uint64
	leases  uint64 // timer ids handed out by this queue (run-local)
	rng     splitmix64
	dropRng splitmix64 // separate stream so drop decisions never shift delay draws
	vnow    int64      // virtual now (ns); written under mu by the dispatcher

	minDelay, maxDelay int64  // message delay range, ns
	dropThreshold      uint64 // drop a message when dropRng.next() < threshold; 0 = reliable

	held   bool // dispatch paused by Network.Freeze
	closed bool

	// ready is the FIFO of tasks awaiting a grant (wake order), posts the
	// wakes and aborts handed in from outside the step discipline, not yet
	// applied. drained is set once the dispatcher has run every task to its
	// exit after close; from then on nothing is queued or posted.
	ready     []*Task
	readyHead int
	posts     []posted
	drained   bool

	vnowAtomic atomic.Int64  // mirror of vnow for lock-free reads
	notify     chan struct{} // poked on push
	quit       chan struct{} // closed on close()
}

// posted is one wake, or with abort one abort, of a task, handed to the
// dispatcher by a caller outside the step discipline.
type posted struct {
	t     *Task
	abort bool
}

func newEventQueue(n int, seed int64, minDelay, maxDelay time.Duration, dropRate float64) *eventQueue {
	q := &eventQueue{
		heap:     make(keyHeap, 0, eventHeapCap(n)),
		theap:    make(keyHeap, 0, min(n, eventHeapCap(n))),
		rng:      splitmix64{x: uint64(seed)},
		dropRng:  splitmix64{x: uint64(seed) ^ 0xd1b54a32d192ed03},
		minDelay: int64(minDelay),
		maxDelay: int64(maxDelay),
		notify:   make(chan struct{}, 1),
		quit:     make(chan struct{}),
	}
	if dropRate > 0 {
		q.dropThreshold = dropThresholdFor(dropRate)
	}
	return q
}

// eventHeapCap sizes the key heap's initial backing array. The queue's
// high-water mark is set by broadcast storms — every participant reacting to
// one round of traffic with a broadcast of its own enqueues O(n²) keys before
// the dispatcher drains them — so growing the heap from zero by
// append-doubling re-copies ~2× the peak on every fresh network. Pre-sizing
// to n² removes that: at 24 bytes a key, the 40 000 keys of an n=200 decide
// wave are 960 kB and never regrow. The clamp is a byte budget, so it moves
// with the key layout: it keeps tiny test networks cheap and bounds the
// up-front cost past n≈209, where append growth takes over.
func eventHeapCap(n int) int {
	const minCap, maxBytes = 64, 1 << 20
	const maxCap = maxBytes / int(unsafe.Sizeof(heapKey{}))
	if n >= maxCap { // also keeps n*n from overflowing
		return maxCap
	}
	return min(max(n*n, minCap), maxCap)
}

// dropThresholdFor converts a drop probability into the uint64 comparison
// threshold of pushMessage: a message is dropped when dropRng.next() falls
// below it. The scaling to the full 64-bit space uses math.Ldexp (an exact
// exponent shift, so rate*2⁶⁴ never rounds), and the result is clamped below
// 2⁶⁴ explicitly: a product that reaches 2⁶⁴ would make the float→uint64
// conversion implementation-defined — on some targets it yields 0, turning a
// near-total-loss link into a fully reliable one.
func dropThresholdFor(dropRate float64) uint64 {
	scaled := math.Ldexp(dropRate, 64)
	if scaled >= math.Ldexp(1, 64) {
		return ^uint64(0)
	}
	return uint64(scaled)
}

// virtualNow returns the current virtual time.
func (q *eventQueue) virtualNow() time.Duration {
	return time.Duration(q.vnowAtomic.Load())
}

// drawDelay samples a delivery delay from [minDelay, maxDelay]. Caller holds
// q.mu.
func (q *eventQueue) drawDelay() int64 {
	if q.maxDelay <= q.minDelay {
		return q.minDelay
	}
	span := uint64(q.maxDelay-q.minDelay) + 1
	return q.minDelay + int64(q.rng.next()%span)
}

// pushMessage enqueues a delivery of msg into boxes[msg.To] at now+delay. It
// reports false if the queue is already closed or the lossy-link knob dropped
// the message. The delay is drawn under the queue lock, so enqueue order
// determines RNG consumption order; during a Freeze the virtual clock is
// necessarily still, so a frozen batch shares one base time and its delivery
// order is exactly the (delay, seq) sort. Drop decisions consume a dedicated
// RNG stream, so the delay sequence of the surviving messages is unchanged.
func (q *eventQueue) pushMessage(msg Message, boxes []mailbox) bool {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return false
	}
	if q.dropThreshold > 0 && q.dropRng.next() < q.dropThreshold {
		q.mu.Unlock()
		return false
	}
	base := q.vnow
	at := base + q.drawDelay()
	q.seq++
	ref := q.bodies.put(msgBody{msg: msg, sentAt: base, boxes: boxes, refs: 1})
	q.heap.push(makeKey(at, q.seq, evMessage, ref, int(msg.To)))
	q.mu.Unlock()
	q.poke(q.notify)
	return true
}

// pushBroadcast enqueues one delivery of tmpl per process under a single lock
// acquisition: recipient i gets tmpl with To=i, SentAt=tmpl.SentAt+i, and its
// mailbox resolved from boxes[i]. The envelope is stored once, in a body slot
// the surviving recipients' keys share. It returns the number of deliveries
// enqueued (the rest were dropped by the lossy-link knob) and ok=false if the
// queue was already closed.
//
// Determinism contract: the RNG consumption per recipient — drop draw first
// (only when losses are enabled), then, for survivors only, one delay draw
// and one sequence number — is exactly the per-call order of pushMessage, in
// recipient order 0..n-1. A broadcast therefore consumes the seeded streams
// identically to the n-call serial loop it replaces, and the resulting
// (deliveryTime, seq) schedule is byte-identical; only the number of lock
// acquisitions, heap operations and stored envelopes changes. The batch is
// appended and the heap re-established in one pass: a full bottom-up heapify
// when the run is large relative to the heap (container/heap's Init strategy,
// O(len) beats n× sift-up's O(n·log len)), per-element sift-up otherwise.
func (q *eventQueue) pushBroadcast(tmpl Message, boxes []mailbox) (enqueued int, ok bool) {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return 0, false
	}
	base := q.vnow
	start := len(q.heap)
	ref := q.bodies.put(msgBody{msg: tmpl, sentAt: base, boxes: boxes, bcast: true})
	for i := range boxes {
		if q.dropThreshold > 0 && q.dropRng.next() < q.dropThreshold {
			continue
		}
		at := base + q.drawDelay()
		q.seq++
		q.heap = append(q.heap, makeKey(at, q.seq, evMessage, ref, i))
	}
	enqueued = len(q.heap) - start
	if enqueued > 0 {
		q.bodies.slots[ref].refs = uint32(enqueued)
		q.heap.restoreAppended(start)
	} else {
		q.bodies.release(ref)
	}
	q.mu.Unlock()
	if enqueued > 0 {
		q.poke(q.notify)
	}
	return enqueued, true
}

// pushCrash enqueues a crash of process p at the absolute virtual time at. The
// dispatcher executes the crash inline when the event pops, so a scheduled
// crash is ordered against message deliveries and timer fires exactly by
// (at, seq) — deterministic for a seeded scenario.
func (q *eventQueue) pushCrash(p model.ProcessID, at int64) {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return
	}
	q.seq++
	q.heap.push(makeKey(at, q.seq, evCrash, 0, int(p)))
	q.mu.Unlock()
	q.poke(q.notify)
}

// scheduleTimer enqueues the first fire of t, into the timer heap, at the
// absolute virtual time at. A ticker's later fires are queued as each one
// pops (see materialise).
func (q *eventQueue) scheduleTimer(t *Timer, at int64) {
	q.mu.Lock()
	if !q.closed {
		q.seq++
		q.theap.push(makeKey(at, q.seq, evTimer, q.timers.put(t), 0))
	}
	q.mu.Unlock()
	q.poke(q.notify)
}

// nextLease hands out a run-local timer id: drawn from this queue's own
// counter, it is reproducible across runs and safe to hash into the trace
// digest.
func (q *eventQueue) nextLease() uint64 {
	q.mu.Lock()
	q.leases++
	id := q.leases
	q.mu.Unlock()
	return id
}

func (q *eventQueue) poke(ch chan struct{}) {
	select {
	case ch <- struct{}{}:
	default:
	}
}

// gapYields is how many scheduler yields the dispatcher grants runnable
// goroutines before letting virtual time jump forward to a timer deadline or
// a scheduled crash; see popStep for whom it is for.
const gapYields = 4

// stepResult is what popStep tells the dispatcher to do next.
type stepResult uint8

const (
	stepClosed stepResult = iota // queue closed; dispatcher exits
	stepGrant                    // a ready task popped; grant it one step
	stepEvent                    // one event popped; deliver it, then grant the task returned with it, if any
)

// popStep blocks until there is work and hands the dispatcher exactly one
// unit of it — a task to grant (which always takes priority, so a delivery's
// wake cascade settles before the next event; posted wakes and aborts are
// applied first) or a single popped event, materialised into *ev, with the
// virtual clock advanced to its timestamp. A timer fire takes effect as its
// key pops, so the task it woke — the next grant in any case, the ready
// queue being empty before the fire — comes back with the event, and a tick
// costs one trip through the lock. Because the network is provably
// quiescent whenever the ready queue is empty, registered tasks need no
// pause before the clock jumps to a timer deadline: there is no runnable
// task to outrun. One pause remains, for
// goroutines the quiescence proof cannot see — callers outside any task that
// have not yet reached RunInTask: the dispatcher resumes its tasks on its own
// thread without ever blocking, which on GOMAXPROCS=1 can starve such a
// runnable caller for a whole preemption timeslice (~10ms wall) while
// virtual time gallops through its poll ticks — so before jumping the clock
// the dispatcher yields a few times to let such callers run and spawn their
// task. Message events need no pause: a message popping at now+delay cannot
// leapfrog anything a running goroutine would still schedule, because later
// sends are stamped from the later clock. Spawn order by racing plain
// goroutines is wall-clock nondeterministic either way (such callers are
// never part of a trace group), so the yield costs nothing from the trace
// contract. popStep must only be called by the single dispatcher goroutine.
func (q *eventQueue) popStep(s *stepper, ev *event) (*Task, stepResult) {
	yields := 0
	for {
		q.mu.Lock()
		if q.closed {
			q.mu.Unlock()
			return nil, stepClosed
		}
		if q.held {
			q.mu.Unlock()
			select {
			case <-q.notify:
			case <-q.quit:
				return nil, stepClosed
			}
			continue
		}
		if t := q.nextReady(s); t != nil {
			q.mu.Unlock()
			return t, stepGrant
		}
		h := q.next()
		if h == nil {
			q.mu.Unlock()
			select {
			case <-q.notify:
			case <-q.quit:
				return nil, stepClosed
			}
			continue
		}
		if head := &(*h)[0]; head.at > q.vnow && head.kind() != evMessage && yields < gapYields {
			yields++
			q.mu.Unlock()
			runtime.Gosched()
			continue
		}
		q.materialise(h, ev)
		if ev.at > q.vnow {
			q.vnow = ev.at
			q.vnowAtomic.Store(ev.at)
		}
		t := q.popReady()
		q.mu.Unlock()
		return t, stepEvent
	}
}

// next returns the heap whose head is the earliest queued key by (at, seq),
// or nil when nothing is queued. Caller holds q.mu.
func (q *eventQueue) next() *keyHeap {
	if len(q.theap) > 0 && (len(q.heap) == 0 || q.theap[0].less(&q.heap[0])) {
		return &q.theap
	}
	if len(q.heap) > 0 {
		return &q.heap
	}
	return nil
}

// post hands the dispatcher a wake of t — with abort, an abort: t is marked
// aborted, tainting the trace, and woken — from a caller outside the step
// discipline (Service.Stop, RunInTask's cancellation, Network.Crash), which
// must not touch the task state the dispatcher owns. The dispatcher applies
// posts in arrival order before it grants the next task. A post after the
// drain is dropped: every task has exited by then.
func (q *eventQueue) post(t *Task, abort bool) {
	q.mu.Lock()
	if !q.drained {
		q.posts = append(q.posts, posted{t: t, abort: abort})
	}
	q.mu.Unlock()
	q.poke(q.notify)
}

// enqueue appends t to the ready queue. It reports false, queuing nothing,
// once the dispatcher has drained.
func (q *eventQueue) enqueue(t *Task) bool {
	q.mu.Lock()
	ok := !q.drained
	if ok {
		q.ready = append(q.ready, t)
	}
	q.mu.Unlock()
	return ok
}

// nextReady applies the pending posts, then pops the oldest ready task, or
// returns nil. No task is running while it does: its callers are popStep and
// the drain, both on the dispatcher between grants. Caller holds q.mu.
func (q *eventQueue) nextReady(s *stepper) *Task {
	for i, p := range q.posts {
		q.posts[i] = posted{}
		if p.t.state == taskDone {
			continue
		}
		if p.abort {
			p.t.aborted = true
			s.taint(p.t)
		}
		if p.t.credit() {
			q.ready = append(q.ready, p.t)
		}
	}
	q.posts = q.posts[:0]
	return q.popReady()
}

// popReady pops the oldest ready task, or returns nil. Caller holds q.mu.
func (q *eventQueue) popReady() *Task {
	if q.readyHead == len(q.ready) {
		return nil
	}
	t := q.ready[q.readyHead]
	q.ready[q.readyHead] = nil
	q.readyHead++
	if q.readyHead == len(q.ready) {
		q.ready = q.ready[:0]
		q.readyHead = 0
	}
	return t
}

// materialise takes the head key of h and turns it into the event the
// dispatcher delivers, overwriting *ev. A message key gives up its hold on
// its body, which is freed when its last recipient pops.
//
// A timer key takes effect here, under the lock popStep holds: the fire is
// banked and its owner, if parked, joins the ready queue (Timer.fire). A
// live ticker's key is re-armed in place: the head becomes its next fire,
// at+period, stamped with the next seq, and one sift-down does the work of
// a pop and a push. Nothing the dispatcher does between popping an event
// and delivering it pushes a key or wakes a task, so firing at the pop
// gives the same seq and the same ready queue as firing at the delivery. A
// stopped timer's key only frees its slot: the event is still recorded, and
// nothing fires. Caller holds q.mu.
func (q *eventQueue) materialise(h *keyHeap, ev *event) {
	k := (*h)[0]
	*ev = event{at: k.at, seq: k.seq, kind: k.kind()}
	if ev.kind == evTimer {
		t := q.timers.slots[k.ref]
		ev.tm = t
		switch {
		case t.stopped.Load():
			h.pop()
			q.timers.release(k.ref)
			return
		case t.period > 0:
			q.seq++
			(*h)[0] = makeKey(k.at+t.period, q.seq, evTimer, k.ref, 0)
			h.siftDown(0)
		default:
			h.pop()
			q.timers.release(k.ref)
		}
		if woken := t.fire(); woken != nil {
			q.ready = append(q.ready, woken)
		}
		return
	}
	h.pop()
	switch ev.kind {
	case evMessage:
		b := &q.bodies.slots[k.ref]
		i := k.proc()
		ev.sentAt, ev.msg, ev.box = b.sentAt, b.msg, &b.boxes[i]
		if b.bcast {
			ev.msg.To = model.ProcessID(i)
			ev.msg.SentAt += model.Time(i)
		}
		if b.refs--; b.refs == 0 {
			q.bodies.release(k.ref)
		}
	case evCrash:
		ev.msg.To = model.ProcessID(k.proc())
	}
}

// setHeld pauses or resumes dispatch; see Network.Freeze.
func (q *eventQueue) setHeld(held bool) {
	q.mu.Lock()
	q.held = held
	q.mu.Unlock()
	if !held {
		q.poke(q.notify)
	}
}

// close shuts the queue down and returns the number of message events it
// discarded, so the caller can keep sent == delivered + dropped balanced. The
// slabs go with the heaps, so no queued payload or timer outlives the queue.
func (q *eventQueue) close() int {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return 0
	}
	q.closed = true
	dropped := 0
	for i := range q.heap {
		if q.heap[i].kind() == evMessage {
			dropped++
		}
	}
	q.heap, q.theap = nil, nil
	q.bodies = slab[msgBody]{}
	q.timers = slab[*Timer]{}
	q.mu.Unlock()
	close(q.quit)
	return dropped
}

// --- min-heap of keys, ordered by (at, seq) ---
//
// Hand-rolled instead of container/heap so keys stay values in the backing
// slice: no interface boxing, hence no per-message allocation on the delivery
// path. Sifts move a hole instead of swapping: the travelling key is held in
// a local and each level costs one 24-byte copy.

type keyHeap []heapKey

func (h *keyHeap) push(k heapKey) {
	*h = append(*h, k)
	h.siftUp(len(*h) - 1)
}

// pop removes and returns the minimum key.
func (h *keyHeap) pop() heapKey {
	old := *h
	head := old[0]
	n := len(old) - 1
	old[0] = old[n]
	*h = old[:n]
	if n > 0 {
		h.siftDown(0)
	}
	return head
}

// restoreAppended re-establishes the heap invariant after a run of keys was
// appended at index start. For a small run each element sifts up; for a run
// comparable to the heap size a full bottom-up heapify is cheaper (O(len)
// versus O(run·log len)).
func (h keyHeap) restoreAppended(start int) {
	n := len(h)
	run := n - start
	if run*bits.Len(uint(n)) > n {
		for i := n/2 - 1; i >= 0; i-- {
			h.siftDown(i)
		}
		return
	}
	for i := start; i < n; i++ {
		h.siftUp(i)
	}
}

func (h keyHeap) siftUp(i int) {
	k := h[i]
	for i > 0 {
		parent := (i - 1) / 2
		if !k.less(&h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = k
}

func (h keyHeap) siftDown(i int) {
	n := len(h)
	k := h[i]
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && h[r].less(&h[c]) {
			c = r
		}
		if !h[c].less(&k) {
			break
		}
		h[i] = h[c]
		i = c
	}
	h[i] = k
}
