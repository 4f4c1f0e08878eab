package net

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// This file implements run-to-quiescence stepping, the deterministic
// goroutine-step scheduler that extends the byte-reproducibility contract
// from schedule-determined outcomes to full traces.
//
// Every scheduler-visible goroutine in the network is a Task, and exactly one
// of the dispatcher or a single granted task runs at any moment. The
// dispatcher pops ONE event, delivers it, then grants every task the delivery
// woke — in deterministic FIFO wake order, one at a time, waiting for each to
// park or exit — before popping the next event. Quiescence is a positive
// handshake: a task is either parked in Await (having returned the scheduling
// token) or running with the token; the ready queue being empty IS the proof
// that every goroutine is parked on a runtime primitive.
//
// Because task execution is serialized, every event-queue push (sequence
// number, RNG draw) and every logical-clock tick happens in an order that is
// a pure function of the seed and the initial schedule — which is what makes
// the trace fingerprint below byte-reproducible, crash events included.

// taskState is the lifecycle of a Task with respect to the scheduling token.
type taskState uint8

const (
	// taskReady: woken (or newly spawned) and queued for a grant.
	taskReady taskState = iota + 1
	// taskGranted: running — the stepper committed the token to it. An
	// escaped task also carries this state (it runs without the token, on a
	// teardown path where determinism is already forfeit).
	taskGranted
	// taskParked: blocked in Await, token returned to the dispatcher.
	taskParked
	// taskDone: exited.
	taskDone
)

// Task is one scheduler-visible goroutine: a protocol runner, a detector
// loop, a register server — anything that takes steps between event
// deliveries. Tasks are created with Network.Go / Network.GoGroup (spawned
// goroutines) or AdoptTask (the calling goroutine submits to the step
// discipline for the duration of one operation).
//
// Protocol code never holds a nil task: entry points adopt when their ctx
// carries none, and Go always hands its function a real one. A nil *Task only
// ever means "nobody to wake" — an unwatched mailbox, an empty TaskWaiter, an
// unbound timer — so Wake is nil-safe; every other method needs a real task.
type Task struct {
	id    uint64
	name  string
	ep    *Endpoint
	s     *stepper
	group bool
	grant chan struct{} // stepper -> task, capacity 1

	mu      sync.Mutex
	state   taskState
	escaped bool
	wakes   uint64 // wake credits issued
	seen    uint64 // wake credits consumed by Await
}

// Wake credits the task with one wakeup. If it is parked it joins the ready
// queue (FIFO — wakers are serialized by the step discipline, so the order is
// deterministic); if it is running the credit makes its next Await return
// immediately, so a wakeup issued between a condition check and the park can
// never be lost. Wake on a nil, done or already-ready task is a no-op beyond
// the credit.
func (t *Task) Wake() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.wakes++
	if t.state != taskParked {
		t.mu.Unlock()
		return
	}
	t.state = taskReady
	t.mu.Unlock()
	t.s.enqueue(t)
}

// Await is the park point: it returns the scheduling token to the dispatcher
// and blocks until the next Wake is granted. If a wake credit is already
// pending (issued while the task was running) it returns immediately without
// yielding. Its callers are the condition-recheck loops of Poll.Until and
// the Service kinds, which re-check their exit conditions after every wake.
//
// ctx is the escape hatch for wall-clock teardown (the scenario timeout): if
// it fires while the task is parked, the task resumes WITHOUT the token,
// marks the trace tainted, and every subsequent Await returns immediately so
// the caller's next condition check can observe ctx.Err() and unwind. A nil
// ctx is allowed; the network-close abort remains as the final escape.
func (t *Task) Await(ctx context.Context) {
	t.mu.Lock()
	if t.escaped {
		t.mu.Unlock()
		return
	}
	if t.seen < t.wakes {
		t.seen = t.wakes
		t.mu.Unlock()
		return
	}
	t.state = taskParked
	t.mu.Unlock()
	t.s.yieldCh <- struct{}{}
	t.block(ctx)
}

// block waits for the grant that follows a wake (or for an escape). It is
// also the initial wait of a freshly spawned or adopted task, which is why it
// is separate from Await: a new task has no token to yield yet.
func (t *Task) block(ctx context.Context) {
	var done <-chan struct{}
	if ctx != nil {
		done = ctx.Done()
	}
	select {
	case <-t.grant:
		t.mu.Lock()
		t.seen = t.wakes
		t.mu.Unlock()
	case <-done:
		t.escape()
	case <-t.s.abort:
		t.escape()
	}
}

// escape resumes the task without a grant. It taints the trace (the cut
// point of a wall-clock interruption is not reproducible) and, if the
// stepper had already committed a grant, consumes the token and hands it
// straight back so the dispatcher never waits on an escaped task.
func (t *Task) escape() {
	t.s.taint(t)
	t.mu.Lock()
	switch t.state {
	case taskParked, taskReady:
		t.escaped = true
		t.state = taskGranted
		t.mu.Unlock()
	case taskGranted:
		t.escaped = true
		t.mu.Unlock()
		<-t.grant
		t.s.yieldCh <- struct{}{}
	default:
		t.mu.Unlock()
	}
}

// exit ends the task. A cleanly exiting task still holds the token: its exit
// is recorded into the trace and the token is returned; an escaped exit only
// updates the group countdown (it must not touch the digest, which the
// dispatcher may be writing concurrently).
func (t *Task) exit() {
	t.mu.Lock()
	if t.state == taskDone {
		t.mu.Unlock()
		return
	}
	escaped := t.escaped
	t.state = taskDone
	t.mu.Unlock()
	if escaped {
		t.s.taint(t)
		t.s.groupExit(t, false)
		return
	}
	t.s.recordExit(t)
	t.s.groupExit(t, true)
	t.s.yieldCh <- struct{}{}
}

// done reports whether the task has exited.
func (t *Task) done() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.state == taskDone
}

// taskCtxKey carries a Task through a context so protocol entry points
// (Propose, Vote, Read, Write, ...) reach their caller's task without
// signature changes.
type taskCtxKey struct{}

// WithTask returns a context carrying t. scenario.Run uses it to hand each
// runner goroutine its task; AdoptTask uses it so nested protocol calls share
// the adopter's task instead of adopting again.
func WithTask(ctx context.Context, t *Task) context.Context {
	return context.WithValue(ctx, taskCtxKey{}, t)
}

// TaskFrom returns the task carried by ctx, or nil for a caller outside the
// step discipline (who must AdoptTask before waiting).
func TaskFrom(ctx context.Context) *Task {
	if ctx == nil {
		return nil
	}
	t, _ := ctx.Value(taskCtxKey{}).(*Task)
	return t
}

// AdoptTask submits the calling goroutine to the step discipline for the
// duration of one operation: it blocks until the dispatcher grants it a
// first step, returns a context carrying the new task plus a release
// function that must be called (deferred) when the operation returns. When
// ctx already carries a task it is a no-op.
//
// This is what keeps raw-network callers (benchmarks, package tests calling
// Propose from plain goroutines) inside the deterministic protocol: without
// adoption their sends would race the dispatcher's steps.
func AdoptTask(ctx context.Context, ep *Endpoint, name string) (context.Context, func()) {
	nw := ep.net
	if TaskFrom(ctx) != nil {
		return ctx, func() {}
	}
	t := nw.stepper.newTask(ep, name, false)
	ep.registerTask(t)
	nw.stepper.enqueue(t)
	t.block(ctx)
	return WithTask(ctx, t), t.exit
}

// TaskWaiter is the single-waiter wake registration protocol code pairs with
// its capacity-1 notification channels: the waiting side registers its task
// around the wait loop, the notifying side (typically a Handle-mode handler
// running on the dispatcher) calls Wake. All methods are safe under
// concurrent use.
type TaskWaiter struct {
	mu sync.Mutex
	t  *Task
}

// Set registers t as the waiter.
func (w *TaskWaiter) Set(t *Task) {
	w.mu.Lock()
	w.t = t
	w.mu.Unlock()
}

// Clear unregisters the waiter.
func (w *TaskWaiter) Clear() {
	w.mu.Lock()
	w.t = nil
	w.mu.Unlock()
}

// Wake wakes the registered waiter, if any.
func (w *TaskWaiter) Wake() {
	w.mu.Lock()
	t := w.t
	w.mu.Unlock()
	t.Wake()
}

// TraceStats are the step-trace shape counters: cheap, schedule-determined
// aggregates of a finalized trace, suitable for bucketing into exploration
// novelty signatures without dragging the full fingerprint (which changes on
// every config perturbation) along.
type TraceStats struct {
	Events   int64 // events delivered before the trace boundary
	Messages int64
	Timers   int64
	Crashes  int64
	Grants   int64 // task steps granted
	// TaintReason is why the trace was forfeited, when it was: the first
	// wall-clock escape that tainted the run, naming the task and process.
	// Empty for a clean trace. When set, the counters above are zero and the
	// fingerprint is empty — the reason is the only thing a tainted run can
	// honestly report.
	TaintReason string
}

// Trace record ops: the three record types of the step trace, using the same
// byte the digest encoding leads with.
const (
	TraceOpEvent byte = 'E' // one delivered event
	TraceOpGrant byte = 'G' // one task step grant
	TraceOpExit  byte = 'X' // one clean task exit
)

// Trace event kinds for TraceOpEvent records, matching the scheduler's
// internal event kinds (and the byte the digest encoding uses).
const (
	TraceKindMessage = byte(evMessage)
	TraceKindTimer   = byte(evTimer)
	TraceKindCrash   = byte(evCrash)
)

// TraceRecord is one record of the step trace — exactly what the trace digest
// hashes, in structured form. The stream of TraceRecords a run produces is
// trace-tier: a pure function of (seed, config), byte-identical across runs.
// Fields beyond Op are populated per record type:
//
//   - TraceOpEvent: Kind, At, Seq, then per kind — message: From, To,
//     Instance, Type; timer: Tid (the run-local timer id); crash: To.
//   - TraceOpGrant, TraceOpExit: Task (the granted/exiting task's id).
//
// SentAt, Proc and Group are observational extras for streaming analyzers
// (internal/probe): they are fully determined by the hashed fields plus the
// seeded schedule, so they ride outside AppendHash — the digest encoding, and
// with it every recorded fingerprint, is unchanged by their existence.
//
//   - SentAt (message events): the virtual time the message was enqueued, so
//     At-SentAt is the delay the seeded RNG actually drew for this delivery.
//   - Proc (grants and exits): the process id owning the granted/exiting task.
//   - Group (exits): whether the exiting task belongs to the trace group —
//     i.e. whether this exit is a protocol runner's decision point.
type TraceRecord struct {
	Op       byte
	Kind     byte
	At       int64
	Seq      uint64
	From     uint64
	To       uint64
	Instance string
	Type     string
	Tid      uint64
	Task     uint64
	SentAt   int64
	Proc     uint64
	Group    bool
}

// AppendHash appends the record's trace-digest encoding to b — the exact
// bytes the streaming SHA-256 consumes for this record. Journal verification
// recomputes fingerprints through this single definition, so the journal and
// the hash cannot drift apart.
func (r *TraceRecord) AppendHash(b []byte) []byte {
	switch r.Op {
	case TraceOpEvent:
		b = append(b, TraceOpEvent, r.Kind)
		b = binary.LittleEndian.AppendUint64(b, uint64(r.At))
		b = binary.LittleEndian.AppendUint64(b, r.Seq)
		switch r.Kind {
		case TraceKindMessage:
			b = binary.LittleEndian.AppendUint64(b, r.From)
			b = binary.LittleEndian.AppendUint64(b, r.To)
			b = binary.LittleEndian.AppendUint64(b, uint64(len(r.Instance)))
			b = append(b, r.Instance...)
			b = binary.LittleEndian.AppendUint64(b, uint64(len(r.Type)))
			b = append(b, r.Type...)
		case TraceKindTimer:
			b = binary.LittleEndian.AppendUint64(b, r.Tid)
		case TraceKindCrash:
			b = binary.LittleEndian.AppendUint64(b, r.To)
		}
	case TraceOpGrant, TraceOpExit:
		b = append(b, r.Op)
		b = binary.LittleEndian.AppendUint64(b, r.Task)
	}
	return b
}

// TraceRecorder observes the step trace record-by-record, beside the digest:
// every record the trace hash sees is passed to Record, in hash order,
// before delivery/grant takes effect. Calls are serialized by the scheduling
// token (the dispatcher writes event and grant records, a cleanly exiting
// task writes its exit record while still holding the token), so
// implementations need no locking — but Record runs on the scheduler's
// critical path and must not block.
type TraceRecorder interface {
	Record(TraceRecord)
}

// stepper is the run-to-quiescence scheduler state owned by a Network: the
// deterministic ready queue, the grant/yield token protocol and the streaming
// trace digest.
type stepper struct {
	q *eventQueue

	mu        sync.Mutex
	ready     []*Task
	readyHead int
	nextID    uint64

	yieldCh chan struct{} // granted task -> dispatcher: parked or exited
	abort   chan struct{} // closed on Network.Close; releases every blocked task
	abortMu sync.Mutex
	aborted bool

	// Trace digest. Writers are the dispatcher (event and grant records) and
	// cleanly exiting tasks (exit records, written while still holding the
	// token), so all writes are serialized by the token handoff; no lock.
	// rec, when non-nil, observes the same serialized record stream.
	tracing   atomic.Bool
	finalized atomic.Bool
	tainted   atomic.Bool
	digest    hash.Hash
	buf       [64]byte
	stats     TraceStats
	rec       TraceRecorder

	// taintReason is the first escape's description (first-wins: later
	// escapes are downstream of the first cut). Guarded by taintMu because
	// escapes happen off the token discipline by definition.
	taintMu     sync.Mutex
	taintReason string

	groupMu    sync.Mutex
	groupLeft  int
	groupDone  chan struct{}
	final      string
	finalStats TraceStats
	finalAt    time.Duration
}

func newStepper(q *eventQueue, rec TraceRecorder) *stepper {
	return &stepper{
		q:         q,
		yieldCh:   make(chan struct{}, 1),
		abort:     make(chan struct{}),
		digest:    sha256.New(),
		groupDone: make(chan struct{}),
		rec:       rec,
	}
}

// taint forfeits the trace, recording why (first-wins). The reason names the
// escaping task and its process — the diagnostic a tainted journal surfaces
// instead of a confusing divergence.
func (s *stepper) taint(t *Task) {
	s.tainted.Store(true)
	s.taintMu.Lock()
	if s.taintReason == "" {
		s.taintReason = fmt.Sprintf("wall-clock escape: task %q (process %d) resumed outside the step discipline (context cancelled or network closed)", t.name, int(t.ep.id))
	}
	s.taintMu.Unlock()
}

func (s *stepper) newTask(ep *Endpoint, name string, group bool) *Task {
	s.mu.Lock()
	s.nextID++
	id := s.nextID
	s.mu.Unlock()
	return &Task{
		id:    id,
		name:  name,
		ep:    ep,
		s:     s,
		group: group,
		grant: make(chan struct{}, 1),
		state: taskReady,
	}
}

// enqueue appends t to the ready queue and pokes the dispatcher, which may be
// idle-waiting for work.
func (s *stepper) enqueue(t *Task) {
	s.mu.Lock()
	s.ready = append(s.ready, t)
	s.mu.Unlock()
	s.q.poke(s.q.notify)
}

// readyPending reports whether any task awaits a grant.
func (s *stepper) readyPending() bool {
	s.mu.Lock()
	pending := s.readyHead < len(s.ready)
	s.mu.Unlock()
	return pending
}

// popReady removes and returns the oldest ready task, or nil.
func (s *stepper) popReady() *Task {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.readyHead >= len(s.ready) {
		return nil
	}
	t := s.ready[s.readyHead]
	s.ready[s.readyHead] = nil
	s.readyHead++
	if s.readyHead == len(s.ready) {
		s.ready = s.ready[:0]
		s.readyHead = 0
	}
	return t
}

// runReady grants every ready task, one at a time, in FIFO order, waiting for
// each to park or exit before the next — the quiescence handshake. It returns
// only when the ready queue is empty, i.e. every scheduler-visible goroutine
// is parked on a runtime primitive and it is sound to pop the next event.
// Called only by the dispatcher.
func (s *stepper) runReady() {
	for {
		t := s.popReady()
		if t == nil {
			return
		}
		t.mu.Lock()
		if t.state != taskReady {
			// Escaped (or exited) between wake and grant: skip without
			// committing the token.
			t.mu.Unlock()
			continue
		}
		t.state = taskGranted
		t.mu.Unlock()
		s.recordGrant(t)
		t.grant <- struct{}{}
		<-s.yieldCh
	}
}

// abortAll releases every task blocked in block(); called by Network.Close.
func (s *stepper) abortAll() {
	s.abortMu.Lock()
	if !s.aborted {
		s.aborted = true
		close(s.abort)
	}
	s.abortMu.Unlock()
}

// beginTraceGroup arms trace recording and declares that n group tasks
// (Network.GoGroup) will exit before the trace is finalized. The scenario
// harness registers its n runners as the group: the trace boundary is the
// last runner's exit — a deterministic trace point — rather than "whenever
// the driver goroutine happened to look", which would cut the digest at a
// wall-clock race.
func (s *stepper) beginTraceGroup(n int) {
	s.groupMu.Lock()
	s.groupLeft = n
	s.groupMu.Unlock()
	s.tracing.Store(true)
}

// groupExit retires one group task. When the last one exits the trace is
// finalized: if every exit was clean and no escape tainted the run, the
// digest and the virtual clock are snapshotted (the exiting task still holds
// the token, so the reads cannot race the dispatcher); otherwise the
// fingerprint stays empty and the clock is read off the token discipline.
// groupDone is closed either way, releasing TraceResult.
func (s *stepper) groupExit(t *Task, clean bool) {
	if !t.group {
		return
	}
	s.groupMu.Lock()
	s.groupLeft--
	last := s.groupLeft == 0
	s.groupMu.Unlock()
	if !last {
		return
	}
	at := s.q.virtualNow()
	s.groupMu.Lock()
	s.finalAt = at
	if clean && !s.tainted.Load() {
		s.final = hex.EncodeToString(s.digest.Sum(nil))
		s.finalStats = s.stats
	} else {
		// A tainted trace keeps nothing but the reason it was forfeited.
		s.taintMu.Lock()
		reason := s.taintReason
		s.taintMu.Unlock()
		if reason == "" {
			reason = "trace tainted: a group task exited on an escape path"
		}
		s.finalStats = TraceStats{TaintReason: reason}
	}
	s.groupMu.Unlock()
	s.finalized.Store(true)
	close(s.groupDone)
}

// record hashes one trace record and forwards it to the attached recorder,
// if any. The digest and the recorder consume the identical record by
// construction — AppendHash is the single encoding definition.
func (s *stepper) record(r *TraceRecord) {
	s.digest.Write(r.AppendHash(s.buf[:0]))
	if s.rec != nil {
		s.rec.Record(*r)
	}
}

// recordEvent hashes one delivered event into the trace: kind, timestamp,
// sequence number and the message envelope's identifying fields. Payloads are
// deliberately excluded — rendering arbitrary values could hash pointer
// representations. Called only by the dispatcher, before delivery.
func (s *stepper) recordEvent(ev *event) {
	if !s.tracing.Load() || s.finalized.Load() {
		return
	}
	s.stats.Events++
	r := TraceRecord{Op: TraceOpEvent, Kind: byte(ev.kind), At: int64(ev.at), Seq: ev.seq}
	switch ev.kind {
	case evMessage:
		s.stats.Messages++
		r.From = uint64(ev.msg.From)
		r.To = uint64(ev.msg.To)
		r.Instance = ev.msg.Instance
		r.Type = ev.msg.Type
		r.SentAt = ev.sentAt
	case evTimer:
		s.stats.Timers++
		r.Tid = ev.tm.id
	case evCrash:
		s.stats.Crashes++
		r.To = uint64(ev.msg.To)
	}
	s.record(&r)
}

// recordGrant hashes one task step grant. Called only by the dispatcher.
func (s *stepper) recordGrant(t *Task) {
	if !s.tracing.Load() || s.finalized.Load() {
		return
	}
	s.stats.Grants++
	s.record(&TraceRecord{Op: TraceOpGrant, Task: t.id, Proc: uint64(t.ep.id)})
}

// recordExit hashes a clean task exit. Called by the exiting task while it
// still holds the token.
func (s *stepper) recordExit(t *Task) {
	if !s.tracing.Load() || s.finalized.Load() {
		return
	}
	s.record(&TraceRecord{Op: TraceOpExit, Task: t.id, Proc: uint64(t.ep.id), Group: t.group})
}

// Go spawns fn as a scheduler-visible task owned by ep: the goroutine takes
// steps only when granted by the dispatcher, parking in Await between them.
func (nw *Network) Go(ep *Endpoint, name string, fn func(*Task)) *Task {
	return nw.spawn(ep, name, false, fn)
}

// GoGroup is Go for tasks belonging to the trace group declared by
// TraceGroup: the exit of the last group task is the trace boundary.
func (nw *Network) GoGroup(ep *Endpoint, name string, fn func(*Task)) *Task {
	return nw.spawn(ep, name, true, fn)
}

func (nw *Network) spawn(ep *Endpoint, name string, group bool, fn func(*Task)) *Task {
	t := nw.stepper.newTask(ep, name, group)
	ep.registerTask(t)
	nw.stepper.enqueue(t)
	go func() {
		t.block(nil)
		fn(t)
		t.exit()
	}()
	return t
}

// TraceGroup arms trace recording and declares the number of GoGroup tasks
// whose collective exit ends the trace. Call it before spawning them (the
// scenario harness spawns its runners under Freeze, so none can exit early).
func (nw *Network) TraceGroup(n int) {
	nw.stepper.beginTraceGroup(n)
}

// TraceResult blocks until the trace group has exited and returns the trace
// fingerprint with its shape counters and the virtual time of the boundary.
// The fingerprint is the hex SHA-256 over the (event, grant, exit) record
// stream up to the last group task's exit — byte-identical across runs of an
// identical seeded configuration, as is the boundary time. The fingerprint is
// empty when the run was tainted by a wall-clock escape (a timeout cut the
// run at a nondeterministic point) — the returned stats then carry only
// TaintReason, naming the escape, and the time is wherever the clock stood
// at the last exit — and everything is immediately zero when no trace group
// was declared.
func (nw *Network) TraceResult() (string, TraceStats, time.Duration) {
	s := nw.stepper
	if !s.tracing.Load() {
		return "", TraceStats{}, 0
	}
	<-s.groupDone
	s.groupMu.Lock()
	defer s.groupMu.Unlock()
	return s.final, s.finalStats, s.finalAt
}

// registerTask records t on its endpoint so a crash (or close) can wake it:
// the woken task observes Context().Err() != nil on its next granted step and
// unwinds deterministically — crashes at decision moments replay exactly.
// Exited tasks are compacted away on each registration (order-preserving, as
// adoptTimer does for dead timers), so per-operation adopted tasks do not
// accumulate for the network's lifetime.
func (ep *Endpoint) registerTask(t *Task) {
	ep.mu.Lock()
	ep.tasks = append(slices.DeleteFunc(ep.tasks, (*Task).done), t)
	ep.mu.Unlock()
}

// wakeTasks wakes every task registered on the endpoint.
func (ep *Endpoint) wakeTasks() {
	ep.mu.Lock()
	tasks := make([]*Task, len(ep.tasks))
	copy(tasks, ep.tasks)
	ep.mu.Unlock()
	for _, t := range tasks {
		t.Wake()
	}
}

// Watch registers t to be woken whenever the dispatcher pushes a message into
// this process's mailbox for the instance: the wake of a wait whose cond
// drains the mailbox with TryRecv (NewWait, NewPoll). Instance.Serve watches
// for its service. Watch(nil) clears the watcher. A mailbox has one watcher:
// a second Watch replaces the first.
func (in Instance) Watch(t *Task) {
	b := in.box()
	b.mu.Lock()
	b.watcher = t
	b.mu.Unlock()
}
