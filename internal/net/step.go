package net

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"iter"
	"slices"
	"sync/atomic"
	"time"
)

// This file implements run-to-quiescence stepping, the deterministic
// task-step scheduler that extends the byte-reproducibility contract from
// schedule-determined outcomes to full traces.
//
// Every scheduler-visible goroutine in the network is a Task, and every task
// body runs as a coroutine (iter.Pull) owned by the dispatcher, so exactly one
// of the dispatcher or a single granted task runs at any moment — on the
// dispatcher's thread, handing control over by a direct coroutine switch. The
// dispatcher pops ONE event, delivers it, then grants every task the delivery
// woke — in deterministic FIFO wake order, one at a time, each by resuming it
// until it parks or exits — before popping the next event. Quiescence is
// structural: a task is either parked in Await (suspended, having yielded
// back to the dispatcher) or running on the dispatcher's call, so the ready
// queue being empty IS the proof that every task is parked on a runtime
// primitive.
//
// Because task execution is serialized, every event-queue push (sequence
// number, RNG draw) and every logical-clock tick happens in an order that is
// a pure function of the seed and the initial schedule — which is what makes
// the trace fingerprint below byte-reproducible, crash events included.
//
// Because only one of them runs at a time, the dispatcher and the task it is
// running own the step path's state outright: a task's lifecycle, wake
// credits and abort flag, a timer's owner and banked fires, a mailbox's ring
// and watcher are plain fields that no lock guards. A goroutine outside the
// step discipline never touches them; it reaches the step path only through
// the event queue's lock — a send or a timer lease pushes a key, a spawn
// queues a ready task, and a wake or an abort is posted (eventQueue.post)
// for the dispatcher to apply before its next grant.
//
// A parked task cannot resume itself; wall-clock interruption reaches it
// through the dispatcher as an abort. Network.Close aborts every task, and
// the dispatcher resumes each live one before it exits (scenario.Run closes
// the network when its ctx is cancelled); RunInTask posts an abort of its
// task when the caller's ctx is cancelled, and a running task that finds its
// ctx cancelled in Poll.Until aborts itself. An aborted task taints the
// trace, and every later Await returns at once, so its condition loops
// observe the cancellation and unwind.

// taskState is the lifecycle of a Task with respect to the dispatcher.
type taskState uint8

const (
	// taskReady: woken (or newly spawned) and queued for a grant.
	taskReady taskState = iota + 1
	// taskGranted: running — resumed by the dispatcher and not yet parked.
	taskGranted
	// taskParked: suspended in Await, control back with the dispatcher.
	taskParked
	// taskDone: exited.
	taskDone
)

// Task is one scheduler-visible coroutine: a protocol runner, a detector
// loop, a register server — anything that takes steps between event
// deliveries. Tasks are created with Network.Go / Network.GoGroup, and by
// RunInTask for a protocol operation whose caller runs outside the step
// discipline. Only the dispatcher resumes a task (next); the body hands
// control back by parking (yield).
//
// Protocol code never holds a nil task: entry points run in a task when
// their ctx carries none, and Go always hands its function a real one. A nil
// *Task only ever means "nobody to wake" — an unwatched mailbox, an idle
// waiter slot, an unbound timer — so Wake is nil-safe; every other method
// needs a real task.
type Task struct {
	id    uint64
	name  string
	ep    *Endpoint
	s     *stepper
	group bool
	next  func() (struct{}, bool) // resumes the body to its next park or exit; the dispatcher's
	yield func(struct{}) bool     // parks the body; the body's

	// Owned by the dispatcher and, while it runs, the task itself; callers
	// outside the step discipline post instead (eventQueue.post).
	state   taskState
	aborted bool
	wakes   uint64 // wake credits issued
	seen    uint64 // wake credits consumed by Await

	// exited is set once, when the body has returned: registerTask reads it
	// to compact an endpoint's task list from any goroutine.
	exited atomic.Bool
}

// Wake credits the task with one wakeup. If it is parked it joins the ready
// queue (FIFO — wakers are serialized by the step discipline, so the order is
// deterministic); if it is running the credit makes its next Await return
// immediately, so a wakeup issued between a condition check and the park can
// never be lost. Wake on a nil, done or already-ready task is a no-op beyond
// the credit.
//
// Wake is for the dispatcher (handlers, timer fires, scheduled crashes) and
// the tasks it runs. A goroutine outside the step discipline must not call
// it: Service.Stop, RunInTask and Network.Crash post their wakes instead.
func (t *Task) Wake() {
	if t != nil && t.credit() {
		t.s.q.enqueue(t)
	}
}

// credit records one wake and reports whether the task was parked, i.e.
// must now join the ready queue; it is then marked ready.
func (t *Task) credit() bool {
	t.wakes++
	if t.state != taskParked {
		return false
	}
	t.state = taskReady
	return true
}

// Await is the park point: it yields to the dispatcher and returns when the
// dispatcher next resumes the task, after a Wake. If a wake credit is already
// pending (issued while the task was running) it returns immediately without
// yielding. Its callers are the condition-recheck loops of Poll.Until and
// the Service kinds, which re-check their exit conditions after every wake.
//
// Once the task is aborted (Network.Close, or a cancelled ctx: RunInTask's,
// or the one Poll.Until checks) every Await returns immediately, so the caller's next condition check
// observes the cancellation and unwinds. The ctx argument is not consulted
// — a parked task resumes only when the dispatcher resumes it — and is kept
// for source compatibility; pass nil.
func (t *Task) Await(_ context.Context) {
	if t.aborted || t.s.aborted.Load() {
		t.s.taint(t)
		return
	}
	if t.seen < t.wakes {
		t.seen = t.wakes
		return
	}
	t.state = taskParked
	t.yield(struct{}{})
}

// abort marks the running task aborted, tainting the trace: its next Await
// returns at once. Only the task itself calls it (Poll.Until); an abort from
// outside the step discipline is posted.
func (t *Task) abort() {
	t.aborted = true
	t.s.taint(t)
}

// taskCtxKey carries a Task through a context so protocol entry points
// (Propose, Vote, Read, Write, ...) reach their caller's task without
// signature changes.
type taskCtxKey struct{}

// WithTask returns a context carrying t. scenario.Run uses it to hand each
// runner its task; RunInTask uses it so nested protocol calls share the
// operation's task instead of spawning another.
func WithTask(ctx context.Context, t *Task) context.Context {
	return context.WithValue(ctx, taskCtxKey{}, t)
}

// TaskFrom returns the task carried by ctx, or nil for a caller outside the
// step discipline (whose operations RunInTask runs).
func TaskFrom(ctx context.Context) *Task {
	if ctx == nil {
		return nil
	}
	t, _ := ctx.Value(taskCtxKey{}).(*Task)
	return t
}

// RunInTask runs op as a task at ep, named name, with a ctx carrying the
// task, and returns its results once the task has exited. Protocol entry
// points call it when their ctx carries no task, passing themselves as op:
//
//	if net.TaskFrom(ctx) == nil {
//		return net.RunInTask(ctx, c.ep, "consensus.propose", func(ctx context.Context) (Value, error) {
//			return c.Propose(ctx, v)
//		})
//	}
//
// This is what keeps raw-network callers (benchmarks, package tests calling
// Propose from plain goroutines) inside the deterministic protocol: every
// send and wait of the operation is a step the dispatcher grants. A
// cancellation of ctx posts an abort of the task, so its waits return ctx's
// error.
func RunInTask[T any](ctx context.Context, ep *Endpoint, name string, op func(context.Context) (T, error)) (T, error) {
	var v T
	var err error
	done := make(chan struct{})
	t := ep.net.Go(ep, name, func(t *Task) {
		v, err = op(WithTask(ctx, t))
		close(done)
	})
	defer context.AfterFunc(ctx, func() { ep.net.q.post(t, true) })()
	<-done
	return v, err
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
// before delivery/grant takes effect. Every call is made by the dispatcher
// (event, grant and exit records alike), so implementations need no locking — but Record runs on the scheduler's
// critical path and must not block.
type TraceRecorder interface {
	Record(TraceRecord)
}

// stepper is the run-to-quiescence scheduler state owned by a Network: the
// abort state and the streaming trace digest. The ready queue it grants from
// lives in the event queue, under its lock (see eventQueue).
type stepper struct {
	q *eventQueue

	nextID atomic.Uint64 // task ids: in spawn order, which the step discipline fixes

	// aborted is set by Network.Close: every task resumed or parking from
	// then on is aborted.
	aborted atomic.Bool

	// Trace digest. Its writers are the dispatcher and the tasks it resumes,
	// so every write is serialized by the coroutine handoff; no lock. rec,
	// when non-nil, observes the same serialized record stream.
	tracing   atomic.Bool
	finalized atomic.Bool
	digest    hash.Hash
	buf       []byte // AppendHash scratch, kept at its high-water size
	stats     TraceStats
	rec       TraceRecorder

	// taintReason is the first abort's description (first-wins: later
	// aborts are downstream of the first cut); nil while the trace is clean.
	taintReason atomic.Pointer[string]

	// The trace group's countdown and its result. final, finalStats and
	// finalAt are written once, before groupDone is closed, and read only
	// after it.
	groupLeft  atomic.Int64
	groupDone  chan struct{}
	final      string
	finalStats TraceStats
	finalAt    time.Duration
}

func newStepper(q *eventQueue, rec TraceRecorder) *stepper {
	return &stepper{
		q:         q,
		digest:    sha256.New(),
		groupDone: make(chan struct{}),
		rec:       rec,
	}
}

// taint forfeits the trace, recording why (first-wins). The reason names the
// aborted task and its process — the diagnostic a tainted journal surfaces
// instead of a confusing divergence.
func (s *stepper) taint(t *Task) {
	if s.taintReason.Load() != nil {
		return
	}
	reason := fmt.Sprintf("wall-clock escape: task %q (process %d) resumed outside the step discipline (context cancelled or network closed)", t.name, int(t.ep.id))
	s.taintReason.CompareAndSwap(nil, &reason)
}

func (s *stepper) newTask(ep *Endpoint, name string, group bool) *Task {
	return &Task{
		id:    s.nextID.Add(1),
		name:  name,
		ep:    ep,
		s:     s,
		group: group,
		state: taskReady,
	}
}

// resume grants t one step: it runs the body from its park (or its start)
// to its next park or its exit. An aborted task's step taints the trace in
// place of a grant record. A task that is no longer ready — it exited, or a
// drain already ran it — is skipped. Called by the dispatcher, or by the
// spawner of a task born after the drain.
func (s *stepper) resume(t *Task) {
	if t.state != taskReady && t.state != taskParked {
		return
	}
	t.state = taskGranted
	t.seen = t.wakes
	if t.aborted || s.aborted.Load() {
		s.taint(t)
	} else {
		s.recordGrant(t)
	}
	if _, parked := t.next(); !parked {
		s.exit(t)
	}
}

// exit ends the task once its body has returned. A clean exit is recorded
// into the trace; an aborted one only taints it. Either way the group
// countdown moves.
func (s *stepper) exit(t *Task) {
	t.state = taskDone
	t.exited.Store(true)
	clean := !t.aborted && !s.aborted.Load()
	if clean {
		s.recordExit(t)
	} else {
		s.taint(t)
	}
	s.groupExit(t, clean)
}

// drain runs every remaining task to its exit after Close: it resumes each
// live task once, aborted, so each Await returns at once and the body
// unwinds — and repeats until no task is left, not even one spawned by an
// unwinding body. Called by the dispatcher as its last act.
func (s *stepper) drain(endpoints []Endpoint) {
	q := s.q
	for {
		for {
			q.mu.Lock()
			t := q.nextReady(s)
			q.mu.Unlock()
			if t == nil {
				break
			}
			s.resume(t)
		}
		for i := range endpoints {
			for _, t := range endpoints[i].registeredTasks() {
				s.resume(t)
			}
		}
		q.mu.Lock()
		idle := q.readyHead == len(q.ready) && len(q.posts) == 0
		q.drained = idle
		q.mu.Unlock()
		if idle {
			return
		}
	}
}

// beginTraceGroup arms trace recording and declares that n group tasks
// (Network.GoGroup) will exit before the trace is finalized. The scenario
// harness registers its n runners as the group: the trace boundary is the
// last runner's exit — a deterministic trace point — rather than "whenever
// the driver goroutine happened to look", which would cut the digest at a
// wall-clock race.
func (s *stepper) beginTraceGroup(n int) {
	s.groupLeft.Store(int64(n))
	s.tracing.Store(true)
}

// groupExit retires one group task. When the last one exits the trace is
// finalized: if every exit was clean and no abort tainted the run, the
// digest and the virtual clock are snapshotted; otherwise the fingerprint
// stays empty and only the taint reason is kept. groupDone is closed either
// way, releasing TraceResult.
func (s *stepper) groupExit(t *Task, clean bool) {
	if !t.group || s.groupLeft.Add(-1) != 0 {
		return
	}
	s.finalAt = s.q.virtualNow()
	if reason := s.taintReason.Load(); clean && reason == nil {
		s.final = hex.EncodeToString(s.digest.Sum(nil))
		s.finalStats = s.stats
	} else {
		// A tainted trace keeps nothing but the reason it was forfeited.
		s.finalStats = TraceStats{TaintReason: *reason}
	}
	s.finalized.Store(true)
	close(s.groupDone)
}

// record hashes one trace record and forwards it to the attached recorder,
// if any. The digest and the recorder consume the identical record by
// construction — AppendHash is the single encoding definition.
func (s *stepper) record(r *TraceRecord) {
	s.buf = r.AppendHash(s.buf[:0])
	s.digest.Write(s.buf)
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

// recordExit hashes a clean task exit. Called by the dispatcher once the
// task's body has returned.
func (s *stepper) recordExit(t *Task) {
	if !s.tracing.Load() || s.finalized.Load() {
		return
	}
	s.record(&TraceRecord{Op: TraceOpExit, Task: t.id, Proc: uint64(t.ep.id), Group: t.group})
}

// Go spawns fn as a scheduler-visible task owned by ep: a coroutine the
// dispatcher resumes for each step, parking in Await between them.
func (nw *Network) Go(ep *Endpoint, name string, fn func(*Task)) *Task {
	return nw.spawn(ep, name, false, fn)
}

// GoGroup is Go for tasks belonging to the trace group declared by
// TraceGroup: the exit of the last group task is the trace boundary.
func (nw *Network) GoGroup(ep *Endpoint, name string, fn func(*Task)) *Task {
	return nw.spawn(ep, name, true, fn)
}

// spawn creates the task and queues its first step, poking the dispatcher in
// case the spawner runs outside the step discipline. A task spawned after
// the dispatcher drained has nobody to resume it, so its spawner runs it,
// aborted, to its exit.
func (nw *Network) spawn(ep *Endpoint, name string, group bool, fn func(*Task)) *Task {
	s := nw.stepper
	t := s.newTask(ep, name, group)
	t.next, _ = iter.Pull(func(yield func(struct{}) bool) {
		t.yield = yield
		fn(t)
	})
	ep.registerTask(t)
	if nw.q.enqueue(t) {
		nw.q.poke(nw.q.notify)
	} else {
		s.resume(t)
	}
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
// empty when the run was tainted by a wall-clock abort (a timeout cut the
// run at a nondeterministic point) — the returned stats then carry only
// TaintReason, naming the aborted task, and the time is wherever the clock
// stood at the last exit — and everything is immediately zero when no trace
// group was declared.
func (nw *Network) TraceResult() (string, TraceStats, time.Duration) {
	s := nw.stepper
	if !s.tracing.Load() {
		return "", TraceStats{}, 0
	}
	<-s.groupDone
	return s.final, s.finalStats, s.finalAt
}

// registerTask records t on its endpoint so a crash can wake it (and Close
// drain it): the woken task observes its process's cancellation on its next
// granted step and unwinds deterministically — crashes at decision moments
// replay exactly. Exited tasks are compacted away on each registration
// (order-preserving, as adoptTimer does for dead timers), so per-operation
// tasks do not accumulate for the network's lifetime.
func (ep *Endpoint) registerTask(t *Task) {
	ep.mu.Lock()
	ep.tasks = append(slices.DeleteFunc(ep.tasks, func(t *Task) bool { return t.exited.Load() }), t)
	ep.mu.Unlock()
}

// registeredTasks returns a copy of the tasks registered on the endpoint, in
// registration order: the tasks a crash wakes.
func (ep *Endpoint) registeredTasks() []*Task {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	return slices.Clone(ep.tasks)
}

// Watch registers t to be woken whenever the dispatcher pushes a message into
// this process's mailbox for the instance: the wake of a wait whose cond
// drains the mailbox with TryRecv (NewWait, NewPoll). Instance.Serve watches
// for its service. Watch(nil) clears the watcher. A mailbox has one watcher:
// a second Watch replaces the first. Like TryRecv, Watch is for tasks only.
func (in Instance) Watch(t *Task) {
	in.box().watcher = t
}
