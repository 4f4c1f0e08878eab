// Package nbac implements non-blocking atomic commit (NBAC, Section 7) and
// the reductions the paper establishes between NBAC and quittable consensus:
//
//   - QCNBAC (Figure 4): given the failure-signal detector FS, any QC
//     algorithm yields an NBAC algorithm — Theorem 8(a).
//   - NBACQC (Figure 5): any NBAC algorithm yields a QC algorithm —
//     half of Theorem 8(b).
//   - FSFromNBAC: any NBAC algorithm implements FS, by running instances
//     forever with Yes votes and turning red on the first Abort — the other
//     half of Theorem 8(b).
//   - TwoPC: a classical blocking two-phase-commit baseline used by the
//     experiment harness to contrast "non-blocking" with what a
//     coordinator-based protocol does under crashes.
//
// Together with the Ψ-based QC of internal/qc, QCNBAC gives the sufficiency
// half of Corollary 10: (Ψ, FS) solves NBAC in any environment.
package nbac

import (
	"context"
	"fmt"
	"sync"
	"time"

	"weakestfd/internal/fd"
	"weakestfd/internal/model"
	"weakestfd/internal/net"
	"weakestfd/internal/qc"
)

// Vote is a process's NBAC vote.
type Vote bool

// Votes.
const (
	VoteYes Vote = true
	VoteNo  Vote = false
)

// String implements fmt.Stringer.
func (v Vote) String() string {
	if v == VoteYes {
		return "Yes"
	}
	return "No"
}

// Outcome is an NBAC decision.
type Outcome bool

// Outcomes.
const (
	Commit Outcome = true
	Abort  Outcome = false
)

// String implements fmt.Stringer.
func (o Outcome) String() string {
	if o == Commit {
		return "Commit"
	}
	return "Abort"
}

// Protocol is a single-shot NBAC instance at one process.
type Protocol interface {
	Vote(ctx context.Context, v Vote) (Outcome, error)
}

// QCNBAC is the algorithm of Figure 4: NBAC from a QC instance and FS.
type QCNBAC struct {
	ep       *net.Endpoint
	instance string
	fs       fd.FS
	qc       qc.QC
}

// NewQCNBAC creates the Figure 4 participant for the process behind ep: votes
// are exchanged under the given instance name, failures are observed through
// fs, and the agreement step delegates to the supplied QC instance.
func NewQCNBAC(ep *net.Endpoint, instance string, fs fd.FS, quittable qc.QC) *QCNBAC {
	return &QCNBAC{ep: ep, instance: "nbac." + instance, fs: fs, qc: quittable}
}

type voteMsg struct {
	Vote Vote
}

// Vote runs Figure 4 with vote v and returns Commit or Abort.
func (a *QCNBAC) Vote(ctx context.Context, v Vote) (Outcome, error) {
	// Adopt the caller so the vote wait and the embedded QC step run as
	// scheduler tasks (a no-op when the ctx already carries a task,
	// e.g. when the FS emulation drives successive instances from one task).
	ctx, release := net.AdoptTask(ctx, a.ep, "nbac.vote")
	defer release()

	// Line 1: send the vote to all.
	a.ep.Broadcast(a.instance, "vote", voteMsg{Vote: v})

	// Line 2: wait until either every process's vote arrived or FS is red,
	// re-sampling FS every 1ms of virtual time. Each poll tick is a "nop"
	// step that advances the logical clock, so time-based detector behaviour
	// (e.g. detection delays) makes progress even without message traffic.
	votes := make(map[model.ProcessID]Vote, a.ep.N())
	sawRed := false
	in := a.ep.Instance(a.instance)
	in.Watch(net.TaskFrom(ctx))
	defer in.Watch(nil)
	poll := a.ep.NewPoll(ctx, time.Millisecond)
	err := poll.Until(ctx, func(bool) (bool, error) {
		for len(votes) < a.ep.N() {
			if a.fs.Sample() == model.Red {
				sawRed = true
				return true, nil
			}
			msg, ok := in.TryRecv()
			if !ok {
				return false, nil
			}
			if msg.Type == "vote" {
				votes[msg.From] = msg.Payload.(voteMsg).Vote
			}
		}
		return true, nil
	})
	// Release the lease before blocking in the QC step, whose waits ride
	// their own poll.
	poll.Stop()
	if err != nil {
		return Abort, fmt.Errorf("nbac vote: %w", err)
	}

	// Lines 3-6: propose 1 only if every vote arrived and all are Yes.
	proposal := 0
	if !sawRed && len(votes) == a.ep.N() {
		allYes := true
		for _, vote := range votes {
			if vote == VoteNo {
				allYes = false
				break
			}
		}
		if allYes {
			proposal = 1
		}
	}

	// Line 7: agree through quittable consensus.
	d, err := a.qc.Propose(ctx, proposal)
	if err != nil {
		return Abort, fmt.Errorf("nbac vote: %w", err)
	}

	// Lines 8-11: Commit only on a (non-Quit) decision of 1.
	if !d.Quit && d.Value == 1 {
		return Commit, nil
	}
	return Abort, nil
}

// Run executes one single-shot NBAC at this participant: it votes input
// (a Vote or bool) and returns the Outcome (the scenario harness's common
// participant entry point).
func (a *QCNBAC) Run(ctx context.Context, input any) (any, error) {
	v, err := voteInput(input)
	if err != nil {
		return nil, err
	}
	return a.Vote(ctx, v)
}

func voteInput(input any) (Vote, error) {
	switch v := input.(type) {
	case Vote:
		return v, nil
	case bool:
		return Vote(v), nil
	default:
		return VoteNo, fmt.Errorf("nbac run: input has type %T, want Vote", input)
	}
}

// NBACQC is the algorithm of Figure 5: quittable consensus from any NBAC
// protocol. Proposals must be ints (the algorithm returns the smallest
// proposal received, so values need a total order).
type NBACQC struct {
	ep       *net.Endpoint
	instance string
	nbac     Protocol
}

// NewNBACQC creates the Figure 5 participant for the process behind ep:
// proposals are exchanged under the given instance name and the commit step
// delegates to the supplied NBAC protocol.
func NewNBACQC(ep *net.Endpoint, instance string, nbac Protocol) *NBACQC {
	return &NBACQC{ep: ep, instance: "nbacqc." + instance, nbac: nbac}
}

type proposalMsg struct {
	Value int
}

// Propose runs Figure 5 with proposal v (which must be an int).
func (q *NBACQC) Propose(ctx context.Context, v qc.Value) (qc.Decision, error) {
	value, ok := v.(int)
	if !ok {
		return qc.Decision{}, fmt.Errorf("nbac-based qc: proposal must be int, got %T", v)
	}
	// Adopt the caller; the embedded NBAC vote reuses the task.
	ctx, release := net.AdoptTask(ctx, q.ep, "nbacqc.propose")
	defer release()

	// Line 1: send the proposal to all.
	q.ep.Broadcast(q.instance, "proposal", proposalMsg{Value: value})

	// Line 2: vote Yes in the NBAC instance.
	outcome, err := q.nbac.Vote(ctx, VoteYes)
	if err != nil {
		return qc.Decision{}, fmt.Errorf("nbac-based qc: %w", err)
	}

	// Lines 3-4: Abort means a failure occurred (everyone voted Yes), so Quit
	// is a legitimate QC decision.
	if outcome == Abort {
		return qc.Decision{Quit: true}, nil
	}

	// Lines 5-7: Commit means every process voted, hence every process also
	// broadcast its proposal; wait for all of them and return the smallest.
	proposals := make(map[model.ProcessID]int, q.ep.N())
	in := q.ep.Instance(q.instance)
	in.Watch(net.TaskFrom(ctx))
	defer in.Watch(nil)
	wait := q.ep.NewWait(ctx)
	err = wait.Until(ctx, func(bool) (bool, error) {
		for len(proposals) < q.ep.N() {
			msg, ok := in.TryRecv()
			if !ok {
				return false, nil
			}
			if msg.Type == "proposal" {
				proposals[msg.From] = msg.Payload.(proposalMsg).Value
			}
		}
		return true, nil
	})
	if err != nil {
		return qc.Decision{}, fmt.Errorf("nbac-based qc: %w", err)
	}
	smallest := 0
	first := true
	for _, p := range proposals {
		if first || p < smallest {
			smallest = p
			first = false
		}
	}
	return qc.Decision{Value: smallest}, nil
}

// Run executes one single-shot quittable consensus at this participant (the
// scenario harness's common participant entry point).
func (q *NBACQC) Run(ctx context.Context, input any) (any, error) {
	d, err := q.Propose(ctx, input)
	if err != nil {
		return nil, err
	}
	return d, nil
}

// FSFromNBAC emulates the failure-signal detector FS from any NBAC protocol
// (Theorem 8(b)): instances are run forever with Yes votes; the signal is
// green until some instance aborts — which, with all-Yes votes, can happen
// only if a failure occurred — and red permanently afterwards.
type FSFromNBAC struct {
	newInstance func(k int) Protocol
	ep          *net.Endpoint
	interval    time.Duration

	mu     sync.Mutex
	red    bool
	rounds int

	svc *net.Service
}

// StartFSFromNBAC starts the emulation at the process behind ep. newInstance
// must return this process's participant in the k-th NBAC instance; every
// process of the system must run the emulation with a compatible factory so
// that the instances line up. interval is the pause between successive
// instances, in virtual time on ep's network — successive instances are
// spaced on the schedule, never by wall-clock sleeps. The emulation stops
// when ctx is cancelled, when Stop is called, or when the process crashes.
func StartFSFromNBAC(ctx context.Context, ep *net.Endpoint, newInstance func(k int) Protocol, interval time.Duration) *FSFromNBAC {
	f := &FSFromNBAC{newInstance: newInstance, ep: ep, interval: interval}
	// The emulation is a service, so the endless sequence of NBAC instances
	// interleaves deterministically with the protocols under test.
	f.svc = ep.Spawn(ctx, "nbac.fs", f.run)
	return f
}

// Sample implements fd.FS.
func (f *FSFromNBAC) Sample() model.FSValue {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.red {
		return model.Red
	}
	return model.Green
}

// Rounds returns the number of NBAC instances that have completed with a
// Commit so far.
func (f *FSFromNBAC) Rounds() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.rounds
}

// Stop terminates the emulation. The signal keeps its last value.
func (f *FSFromNBAC) Stop() { f.svc.Stop() }

// run is the service body. ctx carries the service's task, so the Vote and
// Sleep calls below park on it instead of adopting a task of their own.
func (f *FSFromNBAC) run(ctx context.Context) {
	for k := 0; ; k++ {
		outcome, err := f.newInstance(k).Vote(ctx, VoteYes)
		if err != nil {
			return // cancelled, stopped or crashed
		}
		if outcome == Abort {
			f.mu.Lock()
			f.red = true
			f.mu.Unlock()
			return
		}
		f.mu.Lock()
		f.rounds++
		f.mu.Unlock()
		// Inter-instance pause on the virtual clock: spacing is part of the
		// schedule, not a wall-clock wait.
		if err := f.ep.Sleep(ctx, f.interval); err != nil {
			return
		}
	}
}

var _ fd.FS = (*FSFromNBAC)(nil)
