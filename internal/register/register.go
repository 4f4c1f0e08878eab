// Package register implements fault-tolerant multi-writer multi-reader atomic
// (linearizable) registers over the asynchronous message-passing runtime, in
// the two regimes the paper contrasts:
//
//   - With the quorum failure detector Σ (Theorem 1, sufficiency direction):
//     the Attiya–Bar-Noy–Dolev protocol with its "wait for a majority"
//     replaced by "wait until the acknowledging set covers a quorum currently
//     output by Σ". Σ's intersection property gives atomicity in any
//     environment; its completeness property gives termination at correct
//     processes.
//   - With plain majorities (the classical ABD baseline): correct only in
//     majority-correct environments; operations block forever once a majority
//     has crashed, which experiment E2 demonstrates.
//
// Both are instances of the same generic protocol parameterised by a
// quorum.Guard.
//
// Every operation follows the two-phase structure of ABD:
//
//	Write(v): query phase (collect timestamps from a quorum), then store phase
//	          (push (maxTs+1, v) to a quorum).
//	Read():   query phase (collect timestamp/value pairs from a quorum), then
//	          write-back phase (push the freshest pair to a quorum) so that a
//	          later read cannot observe an older value.
//
// The write path exposes the set of processes that acknowledged the store
// phase (WriteTracked). This is the executable counterpart of the participant
// sets Pi(k) of Figure 1, which the Σ-extraction construction in
// internal/extract consumes.
package register

import (
	"context"
	"fmt"
	"sync"
	"time"

	"weakestfd/internal/model"
	"weakestfd/internal/net"
	"weakestfd/internal/quorum"
)

// Timestamp orders writes: sequence number first, writer id as tie-break, so
// that concurrent writes by different processes are totally ordered.
type Timestamp struct {
	Seq    int64
	Writer model.ProcessID
}

// Less reports whether t is strictly older than o.
func (t Timestamp) Less(o Timestamp) bool {
	if t.Seq != o.Seq {
		return t.Seq < o.Seq
	}
	return t.Writer < o.Writer
}

// String implements fmt.Stringer.
func (t Timestamp) String() string { return fmt.Sprintf("%d.%v", t.Seq, t.Writer) }

// Message types exchanged by the protocol.
const (
	msgGet    = "get"     // query phase request
	msgGetAck = "get.ack" // query phase reply: timestamp and value
	msgSet    = "set"     // store / write-back phase request
	msgSetAck = "set.ack" // store phase acknowledgement
)

type getReq struct {
	Op int64
}

type getAck[V any] struct {
	Op  int64
	Ts  Timestamp
	Val V
}

type setReq[V any] struct {
	Op  int64
	Ts  Timestamp
	Val V
}

type setAck struct {
	Op int64
}

// Register is one process's handle on a replicated register. All processes
// that share the same network and instance name form the replica group; every
// one of them must create (and keep running) a Register for the protocol to
// make progress, since each hosts a replica.
//
// A Register is safe for concurrent use by multiple goroutines of its
// process.
type Register[V any] struct {
	ep       *net.Endpoint
	instance string
	guard    quorum.Guard

	mu    sync.Mutex
	ts    Timestamp
	value V
	opSeq int64
	pend  map[int64]*pending[V]

	replica *net.Service // serves the replica role and routes acks; see handle
}

// pending tracks the acknowledgements of one in-flight phase.
type pending[V any] struct {
	acked   model.ProcessSet
	bestTs  Timestamp
	bestVal V
	waiter  net.TaskWaiter // client task parked in await
}

// New creates the register replica and client handle for the process behind
// ep, joining the replica group identified by instance. The guard decides
// when a phase has gathered enough acknowledgements: quorum.MajorityGuard for
// the classical ABD protocol, quorum.SigmaGuard for the Σ-based one.
func New[V any](ep *net.Endpoint, instance string, guard quorum.Guard) *Register[V] {
	r := &Register[V]{
		ep:       ep,
		instance: "reg." + instance,
		guard:    guard,
		ts:       Timestamp{Seq: 0, Writer: -1},
		pend:     make(map[int64]*pending[V]),
	}
	r.replica = ep.Instance(r.instance).Serve("register.replica", r.handle)
	return r
}

// Endpoint returns the network endpoint this replica runs on.
func (r *Register[V]) Endpoint() *net.Endpoint { return r.ep }

// Stop shuts down the replica's message loop. The register group loses this
// replica, exactly as if the process stopped participating.
func (r *Register[V]) Stop() { r.replica.Stop() }

// handle is the replica service's step, once per message of the register's
// stream: it serves the replica role (answering get/set requests) and routes
// acknowledgements to in-flight operations of the local process.
func (r *Register[V]) handle(msg net.Message) {
	switch msg.Type {
	case msgGet:
		req := msg.Payload.(getReq)
		r.mu.Lock()
		ack := getAck[V]{Op: req.Op, Ts: r.ts, Val: r.value}
		r.mu.Unlock()
		r.ep.Send(msg.From, r.instance, msgGetAck, ack)

	case msgSet:
		req := msg.Payload.(setReq[V])
		r.mu.Lock()
		if r.ts.Less(req.Ts) {
			r.ts = req.Ts
			r.value = req.Val
		}
		r.mu.Unlock()
		r.ep.Send(msg.From, r.instance, msgSetAck, setAck{Op: req.Op})

	case msgGetAck:
		ack := msg.Payload.(getAck[V])
		r.mu.Lock()
		if p, ok := r.pend[ack.Op]; ok {
			p.acked.Add(msg.From)
			if p.bestTs.Less(ack.Ts) {
				p.bestTs = ack.Ts
				p.bestVal = ack.Val
			}
			p.waiter.Wake()
		}
		r.mu.Unlock()

	case msgSetAck:
		ack := msg.Payload.(setAck)
		r.mu.Lock()
		if p, ok := r.pend[ack.Op]; ok {
			p.acked.Add(msg.From)
			p.waiter.Wake()
		}
		r.mu.Unlock()
	}
}

// newPending registers a fresh in-flight phase and returns its id and state.
func (r *Register[V]) newPending() (int64, *pending[V]) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.opSeq++
	id := r.opSeq
	p := &pending[V]{
		acked:  model.NewProcessSet(),
		bestTs: Timestamp{Seq: -1, Writer: -1},
	}
	r.pend[id] = p
	return id, p
}

func (r *Register[V]) dropPending(id int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	delete(r.pend, id)
}

// await blocks until the guard is satisfied by the phase's acknowledgement
// set, the context is cancelled, the replica stops, or the process crashes.
// It returns the acknowledging set on success. Between acknowledgement
// arrivals (the replica task's handler wakes us through the pending's
// waiter) the guard is re-evaluated every 1ms of virtual time, since Σ's
// output can change without new acknowledgements; each poll tick is a nop
// step that keeps the logical clock, and with it Σ's suspicion horizon,
// moving.
func (r *Register[V]) await(ctx context.Context, p *pending[V]) (model.ProcessSet, error) {
	p.waiter.Set(net.TaskFrom(ctx))
	poll := r.ep.NewPoll(ctx, time.Millisecond)
	defer poll.Stop()
	var acked model.ProcessSet
	err := poll.Until(ctx, func(bool) (bool, error) {
		r.mu.Lock()
		acked = p.acked.Clone()
		r.mu.Unlock()
		if r.guard.Satisfied(acked) {
			return true, nil
		}
		if r.replica.Stopped() {
			return false, context.Canceled
		}
		return false, nil
	})
	if err != nil {
		return model.NewProcessSet(), err
	}
	return acked, nil
}

// queryPhase broadcasts a get request and waits for a quorum of replies,
// returning the freshest timestamp/value seen and the acknowledging set.
func (r *Register[V]) queryPhase(ctx context.Context) (Timestamp, V, model.ProcessSet, error) {
	id, p := r.newPending()
	defer r.dropPending(id)
	r.ep.Broadcast(r.instance, msgGet, getReq{Op: id})
	acked, err := r.await(ctx, p)
	if err != nil {
		var zero V
		return Timestamp{}, zero, acked, err
	}
	r.mu.Lock()
	ts, val := p.bestTs, p.bestVal
	r.mu.Unlock()
	return ts, val, acked, nil
}

// storePhase broadcasts a set request and waits for a quorum of
// acknowledgements, returning the acknowledging set.
func (r *Register[V]) storePhase(ctx context.Context, ts Timestamp, val V) (model.ProcessSet, error) {
	id, p := r.newPending()
	defer r.dropPending(id)
	r.ep.Broadcast(r.instance, msgSet, setReq[V]{Op: id, Ts: ts, Val: val})
	return r.await(ctx, p)
}

// Read performs an atomic read: it returns the freshest value covered by a
// quorum and writes it back to a quorum before returning, so that any later
// read observes a value at least as fresh.
func (r *Register[V]) Read(ctx context.Context) (V, error) {
	ctx, release := net.AdoptTask(ctx, r.ep, "register.read")
	defer release()
	ts, val, _, err := r.queryPhase(ctx)
	if err != nil {
		var zero V
		return zero, fmt.Errorf("register read (query phase): %w", err)
	}
	if ts.Seq < 0 {
		// No replica had a value yet; normalise to the initial timestamp.
		ts = Timestamp{Seq: 0, Writer: -1}
		var zero V
		val = zero
	}
	if _, err := r.storePhase(ctx, ts, val); err != nil {
		var zero V
		return zero, fmt.Errorf("register read (write-back phase): %w", err)
	}
	return val, nil
}

// Write performs an atomic write of val.
func (r *Register[V]) Write(ctx context.Context, val V) error {
	_, err := r.WriteTracked(ctx, val)
	return err
}

// Run performs one write of input (which must have the register's value type)
// followed by one read, returning the read value. It makes Register satisfy
// the scenario harness's common participant interface; note the harness's
// built-in Registers descriptor wraps the same two calls with per-operation
// timing records instead, which the linearizability checker needs and this
// generic entry point cannot provide.
func (r *Register[V]) Run(ctx context.Context, input any) (any, error) {
	val, ok := input.(V)
	if !ok {
		var zero V
		return nil, fmt.Errorf("register run: input has type %T, want %T", input, zero)
	}
	if err := r.Write(ctx, val); err != nil {
		return nil, err
	}
	return r.Read(ctx)
}

// WriteTracked performs an atomic write and returns the set of processes that
// acknowledged its store phase — the executable analogue of the participant
// set Pi(k) of Figure 1. The set always contains at least one correct process
// (a quorum acknowledged the value; if every acknowledger were faulty, a
// later read served entirely by other processes could miss the value, which
// the quorum intersection property forbids).
func (r *Register[V]) WriteTracked(ctx context.Context, val V) (model.ProcessSet, error) {
	ctx, release := net.AdoptTask(ctx, r.ep, "register.write")
	defer release()
	ts, _, queryAcks, err := r.queryPhase(ctx)
	if err != nil {
		return model.NewProcessSet(), fmt.Errorf("register write (query phase): %w", err)
	}
	next := Timestamp{Seq: ts.Seq + 1, Writer: r.ep.ID()}
	storeAcks, err := r.storePhase(ctx, next, val)
	if err != nil {
		return model.NewProcessSet(), fmt.Errorf("register write (store phase): %w", err)
	}
	return queryAcks.Union(storeAcks), nil
}
