// Package consensus implements single-shot uniform consensus (Section 4) in
// the regimes the paper analyses:
//
//   - BallotConsensus, a leader/quorum ("synod"-style) protocol driven by the
//     leader detector Ω and parameterised by a quorum.Guard. With the
//     Σ-backed guard it is the sufficiency half of Corollary 2 — consensus
//     from (Ω, Σ) in any environment. With the majority guard it is the
//     classical Ω-plus-majority protocol ([4]'s regime), the baseline of
//     experiment E5 that loses liveness once a majority has crashed.
//   - RegisterConsensus, the paper's stated route for Corollary 2: implement
//     atomic registers from Σ (internal/register), then solve consensus from
//     Ω and registers ([19]); it is a shared-memory round-based (Disk-Paxos
//     style) protocol in which every step is a register operation.
//
// Both protocols decide arbitrary (comparable) values; the binary consensus
// of the paper's Section 4.1 is the special case Value ∈ {0, 1}, and no
// separate binary-to-multivalued transformation ([20]) is needed.
package consensus

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"weakestfd/internal/fd"
	"weakestfd/internal/model"
	"weakestfd/internal/net"
	"weakestfd/internal/quorum"
)

// Value is a proposed or decided value. Values must be comparable with ==
// (the protocols and the checkers compare them for equality).
type Value = any

// Ballot numbers are totally ordered and partitioned among processes
// (ballot mod n == proposer id), so two proposers never reuse a ballot.
type Ballot int64

// Message types of the ballot protocol.
const (
	msgPrepare  = "prepare"
	msgPromise  = "promise"
	msgAccept   = "accept"
	msgAccepted = "accepted"
	msgReject   = "reject"
	msgDecide   = "decide"
)

// Wire format. Every message carries its ballot in the envelope's Aux word
// and nothing in the payload unless a value travels with it, so the ack-heavy
// acceptor paths allocate no payload box per message:
//
//	prepare   Aux=ballot
//	promise   Aux=ballot  Aux2=accepted ballot (-1: none)  Payload=accepted value
//	accept    Aux=ballot  Payload=value
//	accepted  Aux=ballot
//	reject    Aux=ballot  Aux2=higher promised ballot
//	decide    Payload=value
//
// BallotConsensus is one process's participant in a single consensus
// instance. All processes of the network must create one (they all act as
// acceptors); any subset may call Propose.
type BallotConsensus struct {
	ep      *net.Endpoint
	inst    net.Instance
	omega   fd.Omega
	guard   quorum.Guard
	poll    time.Duration
	backoff time.Duration

	mu          sync.Mutex
	promised    Ballot
	accepted    Ballot
	acceptedVal Value
	hasAccepted bool
	maxSeen     Ballot
	decided     bool
	decision    Value

	attempt *attempt
	scratch *attempt // the one attempt struct a proposer reuses across phases and ballots

	// waiter is the proposer task blocked in Propose/awaitAttempt (nil when
	// none): the acceptor handler, which runs on the dispatch goroutine,
	// wakes it so the scheduler sees the handoff. At most one Propose runs
	// per participant, so one slot is enough.
	waiter *net.Task

	stop *stopper
}

// stopper is a close-once signal. A group's participants share one stop
// signal and one decision signal, so each costs one channel for all n
// processes; a standalone participant gets its own pair.
type stopper struct {
	once sync.Once
	ch   chan struct{}
}

func newStopper() *stopper { return &stopper{ch: make(chan struct{})} }

func (s *stopper) signal() { s.once.Do(func() { close(s.ch) }) }

// attempt tracks the proposer side of one ballot.
type attempt struct {
	ballot    Ballot
	phase     string // msgPrepare or msgAccept
	acked     model.ProcessSet
	rejected  bool
	bestBal   Ballot
	bestVal   Value
	hasBest   bool
	valueSent Value
}

// Option configures a consensus participant.
type Option func(*options)

type options struct {
	poll    time.Duration
	backoff time.Duration
}

// WithPollInterval sets how often blocked waits re-evaluate their condition
// (leadership, quorum coverage). The interval is virtual time on the
// network's scheduler (Endpoint.NewPoll), so a poll costs no wall-clock
// time and each poll step advances the logical clock like any other "nop"
// step of the paper's model. Default 1ms.
func WithPollInterval(d time.Duration) Option { return func(o *options) { o.poll = d } }

// WithBackoff sets how long a proposer waits after a failed ballot before
// retrying, in virtual time (Endpoint.NewTimer): large enough to let a
// contending leader finish, free in wall-clock terms. Default 2ms.
func WithBackoff(d time.Duration) Option { return func(o *options) { o.backoff = d } }

// resolveOptions folds the option list into one options struct.
func resolveOptions(opts []Option) *options {
	o := &options{poll: time.Millisecond, backoff: 2 * time.Millisecond}
	for _, fn := range opts {
		fn(o)
	}
	return o
}

// NewBallotConsensus creates the participant for the process behind ep in the
// consensus instance named by instance. omega supplies the leader hint;
// guard decides when a quorum of acceptors has been gathered.
func NewBallotConsensus(ep *net.Endpoint, instance string, omega fd.Omega, guard quorum.Guard, opts ...Option) *BallotConsensus {
	c := &BallotConsensus{}
	c.init(ep, ep.Instance("cons."+instance), omega, guard, resolveOptions(opts), newStopper())
	return c
}

// init wires a (possibly slab-allocated) participant in place and registers
// its delivery handler. Group constructors pass shared options and a shared
// stop signal; the per-participant state is just the struct and the handler
// registration — the acceptor role runs reactively on the network's dispatch
// goroutine, so a participant spawns no goroutine at all.
func (c *BallotConsensus) init(ep *net.Endpoint, inst net.Instance, omega fd.Omega, guard quorum.Guard, o *options, stop *stopper) {
	c.ep = ep
	c.inst = inst
	c.omega = omega
	c.guard = guard
	c.poll = o.poll
	c.backoff = o.backoff
	c.promised = -1
	c.accepted = -1
	c.maxSeen = -1
	c.stop = stop
	inst.Handle(c)
}

// Stop shuts down the participant: its delivery handler discards everything
// after the stop signal, and pending Propose calls return. For a participant
// built by a group constructor the stop signal is shared, so the first Stop
// stops every participant of the group; the remaining calls are no-ops.
func (c *BallotConsensus) Stop() {
	c.stop.signal()
}

// Decision returns the decided value, if this participant has learned it.
func (c *BallotConsensus) Decision() (Value, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.decision, c.decided
}

// Propose runs the consensus protocol with proposal v and returns the decided
// value. It blocks until a decision is learned, the context is cancelled, or
// the process crashes. All waiting rides the network's virtual clock, so a
// blocked Propose costs no wall-clock time.
func (c *BallotConsensus) Propose(ctx context.Context, v Value) (Value, error) {
	// Submit to the step scheduler: if the caller brought no task, this
	// Propose runs in a task of its own, so raw-network callers (benchmarks,
	// package tests) take steps under the same deterministic discipline as
	// scenario runners.
	if net.TaskFrom(ctx) == nil {
		return net.RunInTask(ctx, c.ep, "consensus.propose", func(ctx context.Context) (Value, error) {
			return c.Propose(ctx, v)
		})
	}
	c.waiter = net.TaskFrom(ctx)
	defer func() { c.waiter = nil }()
	// One poll serves the whole call: the non-leader wait below and the
	// leader's quorum waits inside awaitAttempt share its ticker lease, so a
	// Propose costs one lease however many ballots it leads. The lease is
	// released around the backoff Sleep (which leases its own timer) and
	// taken again after it. Wakes arrive from the acceptor handler (via
	// waiter), the ticker, and a crash of this process.
	poll := c.ep.NewPoll(ctx, c.poll)
	var decision Value
	err := poll.Until(ctx, func(tick bool) (bool, error) {
		if tick && c.stopped() {
			return false, errStopped
		}
		for {
			// The decision's only writer, learn, runs on the step path
			// (the acceptor handler or this proposer), which the step
			// discipline serializes with this cond, so the read takes no
			// lock; c.mu is for Decision's callers outside the network.
			if c.decided {
				decision = c.decision
				return true, nil
			}
			if c.omega.Sample() != c.ep.ID() {
				return false, nil
			}
			if val, ok, err := c.lead(ctx, v, &poll); err != nil || ok {
				decision = val
				return true, err
			}
			// Failed ballot: back off so a contending (old) leader can finish.
			poll.Stop()
			if err := c.ep.Sleep(ctx, c.backoff); err != nil {
				return false, err
			}
			poll = c.ep.NewPoll(ctx, c.poll)
		}
	})
	poll.Stop()
	if err != nil {
		return nil, fmt.Errorf("consensus propose: %w", err)
	}
	return decision, nil
}

// errStopped is the error of a wait whose participant was stopped. Stop is
// re-checked on each poll tick rather than woken on: the latency cost is one
// tick, and a group Stop leaves the network (and so the ticker) running.
var errStopped = errors.New("participant stopped")

func (c *BallotConsensus) stopped() bool {
	select {
	case <-c.stop.ch:
		return true
	default:
		return false
	}
}

// Run executes one single-shot consensus at this participant: it proposes
// input and returns the decided value. It is the scenario harness's common
// participant entry point (see internal/scenario).
func (c *BallotConsensus) Run(ctx context.Context, input any) (any, error) {
	return c.Propose(ctx, input)
}

// lead runs one ballot as the proposer. It returns (value, true, nil) when a
// decision was reached, (nil, false, nil) when the ballot was preempted, and
// an error when the context was cancelled.
func (c *BallotConsensus) lead(ctx context.Context, proposal Value, poll *net.Poll) (Value, bool, error) {
	ballot := c.nextBallot()

	// Phase 1: prepare.
	att := c.newAttempt(ballot, msgPrepare)
	c.inst.BroadcastAux(msgPrepare, int64(ballot), 0, nil)
	ok, err := c.awaitAttempt(ctx, att, poll)
	if err != nil || !ok {
		c.clearAttempt()
		return nil, false, err
	}

	// Choose the value: the accepted value of the highest ballot seen, or the
	// proposer's own proposal if no acceptor has accepted anything.
	c.mu.Lock()
	value := proposal
	if att.hasBest {
		value = att.bestVal
	}
	c.mu.Unlock()

	// Phase 2: accept.
	att2 := c.newAttempt(ballot, msgAccept)
	att2.valueSent = value
	c.inst.BroadcastAux(msgAccept, int64(ballot), 0, value)
	ok, err = c.awaitAttempt(ctx, att2, poll)
	c.clearAttempt()
	if err != nil || !ok {
		return nil, false, err
	}

	// Decision: tell everyone (including ourselves).
	c.inst.Broadcast(msgDecide, value)
	c.learn(value)
	return value, true, nil
}

func (c *BallotConsensus) nextBallot() Ballot {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := Ballot(c.ep.N())
	id := Ballot(c.ep.ID())
	round := c.maxSeen/n + 1
	b := round*n + id
	if b <= c.maxSeen {
		b += n
	}
	c.maxSeen = b
	return b
}

// newAttempt readies the proposer's attempt state for one phase of one
// ballot. The attempt struct and its acknowledgement set are reused across
// phases and ballots (a participant runs at most one attempt at a time), so a
// proposal's steady state allocates them once.
func (c *BallotConsensus) newAttempt(b Ballot, phase string) *attempt {
	c.mu.Lock()
	defer c.mu.Unlock()
	att := c.scratch
	if att == nil {
		att = &attempt{acked: model.NewProcessSetCap(c.ep.N())}
		c.scratch = att
	}
	att.ballot = b
	att.phase = phase
	att.acked.Clear()
	att.rejected = false
	att.bestBal = -1
	att.bestVal = nil
	att.hasBest = false
	att.valueSent = nil
	c.attempt = att
	return att
}

func (c *BallotConsensus) clearAttempt() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.attempt = nil
}

// awaitAttempt waits until the attempt's acknowledgement set satisfies the
// quorum guard (true), the attempt is rejected by a higher ballot or another
// proposer's decision arrives (false), or the wait fails. Poll ticks keep Σ
// re-evaluation (whose output can shrink as suspicion delays expire) and the
// logical clock moving while acknowledgements are outstanding.
func (c *BallotConsensus) awaitAttempt(ctx context.Context, att *attempt, poll *net.Poll) (bool, error) {
	var satisfied bool
	err := poll.Until(ctx, func(tick bool) (bool, error) {
		if tick && c.stopped() {
			return false, errStopped
		}
		// The guard is consulted under the participant's mutex with the live
		// acknowledgement set: guards only read the set (quorum.Guard's
		// contract), so no clone is taken per recheck.
		c.mu.Lock()
		defer c.mu.Unlock()
		satisfied = !att.rejected && !c.decided && c.guard.Satisfied(att.acked)
		return satisfied || att.rejected || c.decided, nil
	})
	if err != nil {
		return false, fmt.Errorf("consensus ballot %d: %w", att.ballot, err)
	}
	return satisfied, nil
}

// learn records the decision and wakes up waiting Propose calls.
func (c *BallotConsensus) learn(v Value) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.decided {
		return
	}
	c.decided = true
	c.decision = v
	c.waiter.Wake()
}

// HandleMessage implements net.Handler: it plays the acceptor role and
// routes proposer acknowledgements, running synchronously on the network's
// dispatch goroutine. There is no receive loop and no goroutine behind it —
// an idle acceptor costs nothing. The dispatcher already suppresses
// deliveries to crashed processes, so the only gate needed here is the stop
// signal; everything it does (mutex-guarded state updates, task wakes, sends
// and broadcasts, which merely enqueue) is non-blocking, as Handle requires.
func (c *BallotConsensus) HandleMessage(msg net.Message) {
	if !c.stopped() {
		c.handle(msg)
	}
}

func (c *BallotConsensus) handle(msg net.Message) {
	switch msg.Type {
	case msgPrepare:
		ballot := Ballot(msg.Aux)
		c.mu.Lock()
		if ballot > c.maxSeen {
			c.maxSeen = ballot
		}
		if ballot >= c.promised {
			c.promised = ballot
			accepted, acceptedVal := Ballot(-1), Value(nil)
			if c.hasAccepted {
				accepted, acceptedVal = c.accepted, c.acceptedVal
			}
			c.mu.Unlock()
			c.inst.SendAux(msg.From, msgPromise, int64(ballot), int64(accepted), acceptedVal)
			return
		}
		higher := c.promised
		c.mu.Unlock()
		c.inst.SendAux(msg.From, msgReject, int64(ballot), int64(higher), nil)

	case msgAccept:
		ballot := Ballot(msg.Aux)
		c.mu.Lock()
		if ballot > c.maxSeen {
			c.maxSeen = ballot
		}
		if ballot >= c.promised {
			c.promised = ballot
			c.accepted = ballot
			c.acceptedVal = msg.Payload
			c.hasAccepted = true
			c.mu.Unlock()
			c.inst.SendAux(msg.From, msgAccepted, int64(ballot), 0, nil)
			return
		}
		higher := c.promised
		c.mu.Unlock()
		c.inst.SendAux(msg.From, msgReject, int64(ballot), int64(higher), nil)

	case msgPromise:
		ballot, accepted := Ballot(msg.Aux), Ballot(msg.Aux2)
		c.mu.Lock()
		if att := c.attempt; att != nil && att.phase == msgPrepare && att.ballot == ballot {
			att.acked.Add(msg.From)
			if accepted >= 0 && accepted > att.bestBal {
				att.bestBal = accepted
				att.bestVal = msg.Payload
				att.hasBest = true
			}
			c.waiter.Wake()
		}
		c.mu.Unlock()

	case msgAccepted:
		ballot := Ballot(msg.Aux)
		c.mu.Lock()
		if att := c.attempt; att != nil && att.phase == msgAccept && att.ballot == ballot {
			att.acked.Add(msg.From)
			c.waiter.Wake()
		}
		c.mu.Unlock()

	case msgReject:
		ballot, higher := Ballot(msg.Aux), Ballot(msg.Aux2)
		c.mu.Lock()
		if higher > c.maxSeen {
			c.maxSeen = higher
		}
		if att := c.attempt; att != nil && att.ballot == ballot {
			att.rejected = true
			c.waiter.Wake()
		}
		c.mu.Unlock()

	case msgDecide:
		c.mu.Lock()
		already := c.decided
		c.mu.Unlock()
		c.learn(msg.Payload)
		if !already {
			// Relay the decision once, so that every correct process learns it
			// even if the original proposer crashed mid-broadcast. The relay
			// forwards the incoming payload box as-is, so the n relays of a
			// decision wave allocate nothing.
			c.inst.Broadcast(msgDecide, msg.Payload)
		}
	}
}
