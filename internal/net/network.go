// Package net is the asynchronous message-passing runtime used by the
// protocol packages: an in-memory network of n processes connected by
// reliable links with unbounded (randomised) delays, plus crash injection.
//
// It realises the system model of Section 2 of the paper: processes fail only
// by crashing, links never lose or corrupt messages between processes that do
// not crash, and there is no bound processes may rely on for message delay.
// Crashes are recorded into a live model.FailurePattern, which is the ground
// truth read by the oracle failure detectors in internal/fd and by the
// specification checkers.
//
// # Execution substrate
//
// Delivery is a discrete-event scheduler, not a goroutine per message: every
// send pushes a (deliveryTime, seq) event onto a min-heap drained by one
// dispatcher goroutine. The scheduler runs in virtual time — the injected
// delay determines the delivery order exactly as it would in real time, but
// waiting for it costs zero wall-clock time, so a run executes as fast as the
// hardware allows. Between deliveries the dispatcher resumes the tasks a
// delivery woke (coroutines; see step.go) one at a time, so a seeded run laid
// out under Freeze/Thaw is deterministic down to its full trace. Timers
// (Endpoint.NewTicker, Endpoint.NewTimer) ride the same event queue, in a
// heap of their own popped in the same (deliveryTime, seq) order, which is
// how heartbeat-style failure detectors stay meaningful when time is virtual.
// See ARCHITECTURE.md for the scheduler's design and its determinism
// guarantees.
//
// Protocol instances are interned: the first use of an instance name resolves
// it to a per-network instState carrying the contiguous mailbox array and the
// per-instance counters, and an Instance handle (Endpoint.Instance) lets hot
// loops send, broadcast and receive with no per-call map lookup at all.
package net

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"weakestfd/internal/model"
)

// Option configures a Network.
type Option func(*Network)

// WithDelays sets the per-message delivery delay range. Delays are drawn
// uniformly from [min, max]. The default is [0, 200µs], which is enough to
// reorder messages aggressively; in virtual time the magnitude is free.
func WithDelays(min, max time.Duration) Option {
	return func(n *Network) {
		n.minDelay, n.maxDelay = min, max
	}
}

// WithSeed seeds the delay generator. The drawn delay sequence is a pure
// function of the seed and enqueue order; the delivery order of a batch
// enqueued under Freeze/Thaw is then fully reproducible (the virtual clock is
// still during a freeze, so the whole batch shares one base time). Senders
// outside the task discipline (see Task) racing the dispatcher, or each
// other, reintroduce enqueue-order and base-time nondeterminism.
func WithSeed(seed int64) Option {
	return func(n *Network) { n.seed = seed }
}

// WithDropRate makes every message be dropped independently with probability
// p ∈ [0, 1]. Drop decisions are drawn from a dedicated seeded RNG stream, so
// turning losses on (or off) never shifts the delay sequence of the messages
// that survive. The paper's model assumes reliable links between correct
// processes, so a lossy network is an adversarial knob for safety-only runs:
// protocol liveness may legitimately be lost when p > 0.
func WithDropRate(p float64) Option {
	return func(n *Network) {
		if p < 0 || p > 1 {
			panic(fmt.Sprintf("net: drop rate %v outside [0, 1]", p))
		}
		n.dropRate = p
	}
}

// WithTraceRecorder attaches rec to the step scheduler's trace stream: every
// record the trace digest hashes (events, grants, exits — see TraceRecord) is
// also passed to rec, in hash order, while a trace group is armed. The
// recorder is observe-only: attaching one cannot perturb the schedule, so a
// journaled run and a plain run of the same seeded configuration produce the
// same TraceFingerprint.
func WithTraceRecorder(rec TraceRecorder) Option {
	return func(n *Network) { n.traceRec = rec }
}

// Network is an in-memory asynchronous network of n processes. Create one
// with NewNetwork, hand each protocol participant its Endpoint, inject
// crashes with Crash, and Close it when the run is over.
type Network struct {
	n        int
	clock    *Clock
	pattern  *model.FailurePattern
	minDelay time.Duration
	maxDelay time.Duration
	seed     int64
	dropRate float64

	stepper  *stepper // run-to-quiescence scheduler state; see step.go
	traceRec TraceRecorder

	q *eventQueue

	// The message counters Metrics reads.
	sent, delivered, dropped, crashes atomic.Int64

	instMu    sync.RWMutex
	instances map[string]*instState

	endpoints []Endpoint
	closed    atomic.Bool
	wg        sync.WaitGroup
}

// instState is the interned per-instance state: the instance's sent counter
// and its mailboxes, one per process, in one contiguous allocation. Message
// events resolve their mailbox at enqueue time, so the dispatcher and the
// receivers never look an instance up again.
type instState struct {
	name  string
	sent  atomic.Int64
	boxes []mailbox // indexed by ProcessID
}

// NewNetwork creates a network of n processes with no crashes yet.
func NewNetwork(n int, opts ...Option) *Network {
	if n <= 0 {
		panic(fmt.Sprintf("net: invalid process count %d", n))
	}
	if n > maxProcesses {
		panic(fmt.Sprintf("net: process count %d exceeds the %d the event queue's keys can address", n, maxProcesses))
	}
	nw := &Network{
		n:        n,
		clock:    NewClock(),
		pattern:  model.NewFailurePattern(n),
		minDelay: 0,
		maxDelay: 200 * time.Microsecond,
		seed:     1,
	}
	for _, o := range opts {
		o(nw)
	}
	nw.q = newEventQueue(n, nw.seed, nw.minDelay, nw.maxDelay, nw.dropRate)
	nw.stepper = newStepper(nw.q, nw.traceRec)
	nw.instances = make(map[string]*instState)
	nw.endpoints = make([]Endpoint, n)
	for i := range nw.endpoints {
		ep := &nw.endpoints[i]
		ep.id = model.ProcessID(i)
		ep.net = nw
	}
	nw.wg.Add(1)
	go nw.dispatch()
	return nw
}

// N returns the number of processes.
func (nw *Network) N() int { return nw.n }

// Clock returns the network's logical clock.
func (nw *Network) Clock() *Clock { return nw.clock }

// Pattern returns the live failure pattern recording the crashes injected so
// far. Oracle failure detectors and specification checkers read it.
func (nw *Network) Pattern() *model.FailurePattern { return nw.pattern }

// Metrics returns a live view of the network's message counters.
func (nw *Network) Metrics() Metrics { return Metrics{nw} }

// Metrics reads a network's message counters by name: "msgs.sent",
// "msgs.delivered", "msgs.dropped", "crashes", and "msgs.sent.<instance>"
// for every instance used so far. The values are live: a read taken while
// the network runs sees whatever the dispatcher has counted by then.
type Metrics struct{ nw *Network }

// Get returns the named counter's current value, zero for an unknown name.
func (m Metrics) Get(name string) int64 { return m.Snapshot()[name] }

// Snapshot returns every counter's current value by name.
func (m Metrics) Snapshot() map[string]int64 {
	nw := m.nw
	nw.instMu.RLock()
	defer nw.instMu.RUnlock()
	out := make(map[string]int64, 4+len(nw.instances))
	out["msgs.sent"] = nw.sent.Load()
	out["msgs.delivered"] = nw.delivered.Load()
	out["msgs.dropped"] = nw.dropped.Load()
	out["crashes"] = nw.crashes.Load()
	for name, st := range nw.instances {
		out["msgs.sent."+name] = st.sent.Load()
	}
	return out
}

// Endpoint returns process p's endpoint.
func (nw *Network) Endpoint(p model.ProcessID) *Endpoint {
	return &nw.endpoints[int(p)]
}

// intern resolves an instance name to its interned state, creating it on
// first use. The fast path is a read-locked plain map lookup — unlike a
// sync.Map it does not box the string key into an interface, so a cold call
// site that still sends by name costs no allocation.
func (nw *Network) intern(name string) *instState {
	nw.instMu.RLock()
	st := nw.instances[name]
	nw.instMu.RUnlock()
	if st != nil {
		return st
	}
	nw.instMu.Lock()
	if st = nw.instances[name]; st == nil {
		st = &instState{name: name, boxes: make([]mailbox, nw.n)}
		nw.instances[name] = st
	}
	nw.instMu.Unlock()
	return st
}

// Crash kills process p: its crash is recorded in the failure pattern at the
// current logical time, its context is cancelled, its timers are stopped, and
// no further messages are delivered to or accepted from it. Crashing an
// already-crashed process is a no-op. Crash is for callers outside the step
// discipline: its tasks' wakes are posted to the dispatcher (eventQueue.post),
// while a crash the dispatcher executes itself (ScheduleCrash) wakes them
// directly.
func (nw *Network) Crash(p model.ProcessID) {
	if ep := &nw.endpoints[int(p)]; nw.kill(ep) {
		for _, t := range ep.registeredTasks() {
			nw.q.post(t, false)
		}
	}
}

// kill records the crash of ep's process, cancels its context and stops its
// timers, reporting false if it had already crashed. The caller then wakes
// the process's tasks: each observes its cancelled context on its next
// granted step and unwinds inside the step discipline, so the error return
// of a crashed participant is part of the trace, not a race.
func (nw *Network) kill(ep *Endpoint) bool {
	if ep.crashed.Swap(true) {
		return false
	}
	nw.pattern.Crash(ep.id, nw.clock.Tick())
	nw.crashes.Add(1)
	ep.ctx.cancel()
	ep.stopTimers()
	return true
}

// ScheduleCrash enqueues a crash of process p after the given span of virtual
// time. Unlike a Crash call from an arbitrary goroutine, a scheduled crash is
// executed by the dispatcher itself when the event queue reaches its
// timestamp, so it is ordered against message deliveries and timer fires
// exactly by (deliveryTime, seq) — the crash timing of a seeded scenario is
// part of the schedule, not a wall-clock race. Scheduling a crash for an
// already-crashed process is a harmless no-op when the event fires.
func (nw *Network) ScheduleCrash(p model.ProcessID, after time.Duration) {
	if int(p) < 0 || int(p) >= nw.n {
		panic(fmt.Sprintf("net: scheduled crash of out-of-range process %v", p))
	}
	nw.q.pushCrash(p, int64(nw.q.virtualNow())+int64(after))
}

// Crashed reports whether p has crashed.
func (nw *Network) Crashed(p model.ProcessID) bool {
	return nw.endpoints[int(p)].crashed.Load()
}

// Alive returns the set of processes that have not crashed.
func (nw *Network) Alive() model.ProcessSet {
	s := model.NewProcessSet()
	for i := range nw.endpoints {
		if !nw.endpoints[i].crashed.Load() {
			s.Add(model.ProcessID(i))
		}
	}
	return s
}

// Close shuts the network down: all endpoints' contexts are cancelled, all
// timers are stopped, and the dispatcher runs every task to its exit. A
// closed network drops every subsequent send.
func (nw *Network) Close() {
	if nw.closed.Swap(true) {
		return
	}
	// Abort before cancelling: a task that observes its cancelled process
	// from here on exits aborted, never cleanly into the trace. The
	// dispatcher drains every task before it exits.
	nw.stepper.aborted.Store(true)
	for i := range nw.endpoints {
		ep := &nw.endpoints[i]
		ep.ctx.cancel()
		ep.stopTimers()
	}
	if dropped := nw.q.close(); dropped > 0 {
		nw.dropped.Add(int64(dropped))
	}
	nw.wg.Wait()
}

// Freeze pauses event dispatch: sends and timer schedules are accepted and
// queued, but nothing is delivered until Thaw. Use it to construct a batch of
// events atomically — the scheduler then dispatches the whole batch in exact
// (delay, enqueue-seq) order, which is what makes a seeded scenario's
// delivery order fully deterministic regardless of how goroutines race the
// dispatcher. Scenario drivers use it to lay out adversarial schedules before
// releasing them.
func (nw *Network) Freeze() { nw.q.setHeld(true) }

// Thaw resumes event dispatch after Freeze.
func (nw *Network) Thaw() { nw.q.setHeld(false) }

// sendTo enqueues an asynchronous delivery to one process. It is a no-op if
// the network is closed or the sender has crashed.
func (nw *Network) sendTo(st *instState, from, to model.ProcessID, typ string, aux, aux2 int64, payload any) {
	if nw.closed.Load() || nw.Crashed(from) {
		nw.dropped.Add(1)
		return
	}
	if int(to) < 0 || int(to) >= nw.n {
		panic(fmt.Sprintf("net: send to out-of-range process %v", to))
	}
	sentAt := nw.clock.Tick()
	nw.sent.Add(1)
	st.sent.Add(1)
	msg := Message{From: from, To: to, Instance: st.name, Type: typ, Payload: payload, Aux: aux, Aux2: aux2, SentAt: sentAt}
	if !nw.q.pushMessage(msg, st.boxes) {
		nw.dropped.Add(1)
	}
}

// broadcast enqueues one delivery per process. The whole fan-out is one
// eventQueue.pushBroadcast call: the logical clock is advanced n ticks at
// once and the queue lock taken once, but the per-recipient RNG consumption
// and sequence numbering are exactly those of n sendTo calls in recipient
// order — see pushBroadcast for the contract.
func (nw *Network) broadcast(st *instState, from model.ProcessID, typ string, aux, aux2 int64, payload any) {
	if nw.closed.Load() || nw.Crashed(from) {
		nw.dropped.Add(int64(nw.n))
		return
	}
	first := nw.clock.TickN(nw.n)
	nw.sent.Add(int64(nw.n))
	st.sent.Add(int64(nw.n))
	tmpl := Message{From: from, Instance: st.name, Type: typ, Payload: payload, Aux: aux, Aux2: aux2, SentAt: first}
	enqueued, ok := nw.q.pushBroadcast(tmpl, st.boxes)
	if !ok {
		enqueued = 0
	}
	if d := nw.n - enqueued; d > 0 {
		nw.dropped.Add(int64(d))
	}
}

// dispatch is the single delivery goroutine. It runs the run-to-quiescence
// loop: deliver ONE event, then grant every task that delivery woke —
// serially, in deterministic FIFO wake order, each a coroutine resumed on
// this goroutine — until the network is quiescent again, then pop the next
// event. popStep prioritises ready tasks over due events, so an event
// delivery's entire wake cascade (including wakes issued by granted tasks
// themselves) settles before the next event is popped — the quiescence
// handshake. After Close it drains every task to its exit. No goroutine is
// ever spawned per message, and the queue's lock is the only lock between an
// event and the task it wakes.
func (nw *Network) dispatch() {
	defer nw.wg.Done()
	s := nw.stepper
	var ev event
	for {
		t, res := nw.q.popStep(s, &ev)
		switch res {
		case stepClosed:
			s.drain(nw.endpoints)
			return
		case stepGrant:
			s.resume(t)
		case stepEvent:
			s.recordEvent(&ev)
			nw.deliver(&ev)
			if t != nil {
				s.resume(t)
			}
		}
	}
}

// deliver executes one popped event. A timer fire took effect as its key
// popped (eventQueue.materialise); its grant, if it woke a task, follows.
func (nw *Network) deliver(ev *event) {
	switch ev.kind {
	case evMessage:
		if nw.closed.Load() || nw.Crashed(ev.msg.To) {
			nw.dropped.Add(1)
		} else {
			nw.clock.Tick()
			ev.box.push(ev.msg)
			// Counted after the push: once the books balance
			// (sent == delivered + dropped) every message really is
			// in its mailbox, so quiescence is observable from the
			// counters alone.
			nw.delivered.Add(1)
		}
	case evCrash:
		if ep := &nw.endpoints[int(ev.msg.To)]; nw.kill(ep) {
			for _, t := range ep.registeredTasks() {
				t.Wake()
			}
		}
	}
}

// processCtx is a process's liveness as the waits in this package read it:
// cancelled when the process crashes or the network closes, after which Err
// reports context.Canceled — the error a wait of a crashed process returns.
type processCtx struct {
	canceled atomic.Bool
}

func (c *processCtx) Err() error {
	if c.canceled.Load() {
		return context.Canceled
	}
	return nil
}

func (c *processCtx) cancel() { c.canceled.Store(true) }

// Endpoint is a process's connection to the network. A protocol participant
// running at process p sends through it and reads its per-instance message
// streams.
type Endpoint struct {
	id      model.ProcessID
	net     *Network
	ctx     processCtx
	crashed atomic.Bool

	mu       sync.Mutex
	timers   []*Timer
	tasks    []*Task   // tasks owned by this process, woken on crash
	timerArr [4]*Timer // inline backing for timers: typical processes hold at most a few live timers
}

// ID returns the process identifier of this endpoint.
func (ep *Endpoint) ID() model.ProcessID { return ep.id }

// N returns the number of processes in the network.
func (ep *Endpoint) N() int { return ep.net.n }

// Crashed reports whether this process has crashed.
func (ep *Endpoint) Crashed() bool { return ep.crashed.Load() }

// Clock returns the network's logical clock.
func (ep *Endpoint) Clock() *Clock { return ep.net.clock }

// Instance resolves an instance name once and returns the handle hot paths
// should hold on to: every Instance method runs with zero name lookups.
// Instance is a small value, so resolving one allocates nothing beyond the
// first-use interning of the name itself.
func (ep *Endpoint) Instance(name string) Instance {
	return Instance{ep: ep, st: ep.net.intern(name)}
}

// Send sends a message of the given instance and type to process "to".
func (ep *Endpoint) Send(to model.ProcessID, instance, typ string, payload any) {
	ep.net.sendTo(ep.net.intern(instance), ep.id, to, typ, 0, 0, payload)
}

// Broadcast sends the message to every process, including the sender itself
// (the paper's algorithms routinely "send to all" and rely on receiving their
// own message).
func (ep *Endpoint) Broadcast(instance, typ string, payload any) {
	ep.net.broadcast(ep.net.intern(instance), ep.id, typ, 0, 0, payload)
}

// Instance is an interned handle on one (process, instance) pair: the mailbox
// and counters are resolved once at Instance() time, so sends, broadcasts and
// receives through the handle perform no map lookups. The zero Instance is
// invalid. Instance values are cheap to copy. Sends and broadcasts are safe
// from any goroutine (they go through the event queue's lock); the mailbox
// side — TryRecv, Watch, Handle — belongs to the dispatcher and its tasks,
// and takes no lock (Handle may also be called before any traffic to the
// instance is sent).
type Instance struct {
	ep *Endpoint
	st *instState
}

// Name returns the interned instance name.
func (in Instance) Name() string { return in.st.name }

// Send sends a message of this instance to process "to".
func (in Instance) Send(to model.ProcessID, typ string, payload any) {
	in.ep.net.sendTo(in.st, in.ep.id, to, typ, 0, 0, payload)
}

// SendAux sends a message whose scalar content rides in the envelope's Aux
// words (see Message): no payload box is allocated when payload is nil.
func (in Instance) SendAux(to model.ProcessID, typ string, aux, aux2 int64, payload any) {
	in.ep.net.sendTo(in.st, in.ep.id, to, typ, aux, aux2, payload)
}

// Broadcast sends the message to every process through the batched enqueue
// fast path (a single queue-lock acquisition for the whole fan-out).
func (in Instance) Broadcast(typ string, payload any) {
	in.ep.net.broadcast(in.st, in.ep.id, typ, 0, 0, payload)
}

// BroadcastAux is Broadcast with the envelope's scalar Aux words set; like
// SendAux it allocates no payload box when payload is nil.
func (in Instance) BroadcastAux(typ string, aux, aux2 int64, payload any) {
	in.ep.net.broadcast(in.st, in.ep.id, typ, aux, aux2, payload)
}

// TryRecv pops the next buffered message without blocking, straight from
// the mailbox ring. Messages delivered before the first TryRecv are
// buffered, so a reader that starts after communication has begun loses
// nothing. Nothing stands between the dispatcher and the caller: once the
// network delivers a message it is visible here immediately — which is what
// lets timeout-driven loops (internal/fdimpl) drain their traffic
// synchronously before acting on a tick. Each instance has a single stream;
// several tasks may drain it, one step at a time. Only a task may call
// TryRecv: the dispatcher pushes into the ring without a lock, and the step
// discipline is what keeps the two apart. A task that must wait for traffic
// pairs TryRecv with Instance.Watch.
func (in Instance) TryRecv() (Message, bool) {
	return in.box().tryPop()
}

// Handler is a synchronous message consumer registered with Instance.Handle.
// It is an interface rather than a func value so that registering a
// pointer-backed participant allocates nothing (boxing a pointer into an
// interface is free; wrapping a method in a func value is a heap closure).
type Handler interface {
	// HandleMessage is invoked on the network's dispatch goroutine, once per
	// delivered message, in delivery order. It must not block.
	HandleMessage(Message)
}

// Handle registers h as this process's delivery handler for the instance:
// the dispatcher invokes it synchronously, on the dispatch goroutine, for
// every message instead of buffering into the mailbox ring. It is the
// zero-goroutine consumption mode for purely reactive participants — no
// per-process receive loop, no wakeup, no handoff; the cost of an idle
// participant is nothing at all.
//
// The handler must not block (it stalls delivery for the whole network if it
// does); sending — including broadcasts — is fine, the events are enqueued
// for later dispatch. While a handler is registered nothing reaches the ring,
// so TryRecv on this instance only sees what was buffered before; those
// messages are not replayed to the handler, so register it before traffic
// starts. Passing nil restores buffered delivery.
func (in Instance) Handle(h Handler) {
	in.box().handler = h
}

func (in Instance) box() *mailbox { return &in.st.boxes[int(in.ep.id)] }

// adoptTimer ties a timer's lifetime to the process: crash or network close
// stops it, so a dead process's ticker stops refilling the event heap. Dead
// timers (stopped, or one-shots that fired) are compacted away on each adopt
// so per-operation timers do not accumulate for the network's lifetime.
func (ep *Endpoint) adoptTimer(t *Timer) {
	ep.mu.Lock()
	dead := ep.crashed.Load() || ep.net.closed.Load()
	if !dead {
		if ep.timers == nil {
			// First adoption (or first after a stopTimers sweep, which only
			// happens once the process is dead): borrow the inline array so
			// the common ≤4-timer case allocates no list. stopTimers hands
			// the backing away, but never to a process that can adopt again.
			ep.timers = ep.timerArr[:0]
		}
		ep.timers = append(slices.DeleteFunc(ep.timers, (*Timer).Stopped), t)
	}
	ep.mu.Unlock()
	if dead {
		t.Stop()
	}
}

func (ep *Endpoint) stopTimers() {
	ep.mu.Lock()
	timers := ep.timers
	ep.timers = nil
	ep.mu.Unlock()
	for _, t := range timers {
		t.Stop()
	}
}

// mailbox is an unbounded FIFO queue: push never blocks the dispatcher, and
// the consumer is either a registered Handler (called synchronously from
// push) or a task calling tryPop, optionally watching with a task that push
// wakes. Internally it is a ring buffer; consumed slots are cleared and the
// backing array is reused. The dispatcher pushes and tasks pop, so the step
// discipline serializes every access and no lock guards it. Mailboxes live
// in the instState's contiguous array, and the zero mailbox is ready to use.
type mailbox struct {
	buf     []Message
	head    int
	count   int
	handler Handler
	watcher *Task // task woken per push; see Instance.Watch
}

func (m *mailbox) push(msg Message) {
	if m.handler != nil {
		// Handler mode: deliver synchronously on the pushing (dispatcher)
		// goroutine, bypassing the ring.
		m.handler.HandleMessage(msg)
		return
	}
	if m.count == len(m.buf) {
		m.grow()
	}
	m.buf[(m.head+m.count)%len(m.buf)] = msg
	m.count++
	m.watcher.Wake()
}

// grow doubles the ring, re-linearising the live window.
func (m *mailbox) grow() {
	newCap := 2 * len(m.buf)
	if newCap == 0 {
		newCap = 16
	}
	buf := make([]Message, newCap)
	for i := 0; i < m.count; i++ {
		buf[i] = m.buf[(m.head+i)%len(m.buf)]
	}
	m.buf, m.head = buf, 0
}

// tryPop pops the next message if one is queued, without blocking.
func (m *mailbox) tryPop() (Message, bool) {
	if m.count == 0 {
		return Message{}, false
	}
	msg := m.buf[m.head]
	m.buf[m.head] = Message{} // release the payload reference
	m.head = (m.head + 1) % len(m.buf)
	m.count--
	return msg, true
}
