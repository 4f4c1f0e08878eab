package nbac

import (
	"context"
	"fmt"

	"weakestfd/internal/model"
	"weakestfd/internal/net"
)

// TwoPC is the classical blocking two-phase commit: every participant sends
// its vote to a fixed coordinator, the coordinator waits for all votes and
// broadcasts Commit iff every vote was Yes, and every participant waits for
// the coordinator's decision.
//
// TwoPC satisfies the agreement and validity clauses of atomic commit but not
// the non-blocking termination clause: a single crash (of a participant
// before voting, or of the coordinator before deciding) blocks every other
// process forever. It is the baseline the experiment harness contrasts with
// the (Ψ, FS)-based NBAC.
type TwoPC struct {
	ep          *net.Endpoint
	instance    string
	coordinator model.ProcessID
}

// NewTwoPC creates the participant for the process behind ep, with the given
// fixed coordinator.
func NewTwoPC(ep *net.Endpoint, instance string, coordinator model.ProcessID) *TwoPC {
	return &TwoPC{ep: ep, instance: "twopc." + instance, coordinator: coordinator}
}

type twopcDecision struct {
	Outcome Outcome
}

// Vote runs the protocol with vote v. It blocks (until the context expires)
// if any process crashes at an inconvenient time — that is the point of the
// baseline.
func (t *TwoPC) Vote(ctx context.Context, v Vote) (Outcome, error) {
	// Adopt the caller. Blocking forever on a crashed peer is the point of the
	// baseline; a parked task that is never woken again simply stays quiescent
	// until the run's deadline escapes it.
	ctx, release := net.AdoptTask(ctx, t.ep, "twopc.vote")
	defer release()
	in := t.ep.Instance(t.instance)
	in.Watch(net.TaskFrom(ctx))
	defer in.Watch(nil)
	wait := t.ep.NewWait(ctx)
	recv := func() (msg net.Message, err error) {
		err = wait.Until(ctx, func(bool) (bool, error) {
			var ok bool
			msg, ok = in.TryRecv()
			return ok, nil
		})
		return msg, err
	}

	// Phase 1: every participant (including the coordinator) sends its vote
	// to the coordinator.
	t.ep.Send(t.coordinator, t.instance, "vote", voteMsg{Vote: v})

	if t.ep.ID() == t.coordinator {
		votes := make(map[model.ProcessID]Vote, t.ep.N())
		for len(votes) < t.ep.N() {
			msg, err := recv()
			if err != nil {
				return Abort, fmt.Errorf("2pc coordinator: %w", err)
			}
			if msg.Type == "vote" {
				votes[msg.From] = msg.Payload.(voteMsg).Vote
			}
		}
		outcome := Commit
		for _, vote := range votes {
			if vote == VoteNo {
				outcome = Abort
				break
			}
		}
		// Phase 2: announce the decision.
		t.ep.Broadcast(t.instance, "decision", twopcDecision{Outcome: outcome})
	}

	// Every participant waits for the coordinator's decision.
	for {
		msg, err := recv()
		if err != nil {
			return Abort, fmt.Errorf("2pc participant: %w", err)
		}
		if msg.Type == "decision" {
			return msg.Payload.(twopcDecision).Outcome, nil
		}
	}
}

// Run executes one single-shot 2PC at this participant: it votes input (a
// Vote or bool) and returns the Outcome (the scenario harness's common
// participant entry point).
func (t *TwoPC) Run(ctx context.Context, input any) (any, error) {
	v, err := voteInput(input)
	if err != nil {
		return nil, err
	}
	return t.Vote(ctx, v)
}

var _ Protocol = (*TwoPC)(nil)
