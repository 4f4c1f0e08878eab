package consensus

import (
	"context"
	"fmt"
	"time"

	"weakestfd/internal/fd"
	"weakestfd/internal/model"
	"weakestfd/internal/net"
	"weakestfd/internal/register"
)

// RegisterConsensus solves consensus from Ω and atomic registers — the route
// the paper uses to prove Corollary 2 (registers come from Σ via
// internal/register, consensus comes from Ω plus registers, after [19]).
//
// The protocol is a shared-memory round-based ("Disk Paxos" style) algorithm:
//
//   - Every process p owns a single-writer register regs[p] holding
//     (mbal, bal, val): the highest ballot p has started, and the ballot and
//     value of p's last phase-2 write.
//   - A proposer with ballot b writes mbal=b to its own register, reads all
//     registers, and aborts if it sees a higher mbal. Otherwise it adopts the
//     value of the highest bal it read (or its own proposal), writes
//     (bal=b, val=v) to its own register, re-reads all registers, and decides
//     v if it still sees no higher mbal.
//   - The decision is published in a separate multi-writer decision register
//     that every process polls, so non-leaders learn the outcome through
//     shared memory alone.
//
// Only the process currently trusted by Ω plays proposer, which yields
// termination once Ω has stabilised; safety is independent of Ω and follows
// from register atomicity.
type RegisterConsensus struct {
	id      model.ProcessID
	n       int
	ep      *net.Endpoint
	omega   fd.Omega
	regs    []*register.Register[RoundState]
	dec     *register.Register[DecisionState]
	maxSeen Ballot
}

// RoundState is the content of a proposer register.
type RoundState struct {
	MBal Ballot
	Bal  Ballot
	Val  Value
	Has  bool
}

// DecisionState is the content of the decision register.
type DecisionState struct {
	Decided bool
	Val     Value
}

// RegisterConsensusConfig wires one process's handles: Regs[i] must be the
// local handle of the register group owned by process i, and Dec the local
// handle of the decision register group. EP is the process's network
// endpoint; the participant's poll pauses ride its virtual clock. If EP is
// nil it is derived from the process's decision-register replica.
type RegisterConsensusConfig struct {
	ID    model.ProcessID
	EP    *net.Endpoint
	Omega fd.Omega
	Regs  []*register.Register[RoundState]
	Dec   *register.Register[DecisionState]
}

// NewRegisterConsensus builds the participant from its configuration.
func NewRegisterConsensus(cfg RegisterConsensusConfig) *RegisterConsensus {
	ep := cfg.EP
	if ep == nil && cfg.Dec != nil {
		ep = cfg.Dec.Endpoint()
	}
	if ep == nil {
		panic("consensus: RegisterConsensusConfig needs an endpoint (EP or Dec)")
	}
	return &RegisterConsensus{
		id:      cfg.ID,
		n:       len(cfg.Regs),
		ep:      ep,
		omega:   cfg.Omega,
		regs:    cfg.Regs,
		dec:     cfg.Dec,
		maxSeen: -1,
	}
}

// Propose runs the protocol with proposal v and returns the decided value.
func (c *RegisterConsensus) Propose(ctx context.Context, v Value) (Value, error) {
	// Adopt the caller. Every wait below — register Read/Write round-trips
	// and the poll Sleep — finds the task in the ctx.
	ctx, release := net.AdoptTask(ctx, c.ep, "consensus.register")
	defer release()
	for {
		// Has someone already decided?
		d, err := c.dec.Read(ctx)
		if err != nil {
			return nil, fmt.Errorf("register consensus: decision read: %w", err)
		}
		if d.Decided {
			return d.Val, nil
		}
		if c.omega.Sample() != c.id {
			if err := c.pause(ctx); err != nil {
				return nil, fmt.Errorf("register consensus: %w", err)
			}
			continue
		}
		decided, val, err := c.lead(ctx, v)
		if err != nil {
			return nil, err
		}
		if decided {
			return val, nil
		}
		if err := c.pause(ctx); err != nil {
			return nil, fmt.Errorf("register consensus: %w", err)
		}
	}
}

// pause is one poll step, 1ms of virtual time; like every "nop" step it
// advances the logical clock so detector behaviour keeps making progress.
func (c *RegisterConsensus) pause(ctx context.Context) error {
	if err := c.ep.Sleep(ctx, time.Millisecond); err != nil {
		return err
	}
	c.ep.Clock().Tick()
	return nil
}

// Run executes one single-shot consensus at this participant: it proposes
// input and returns the decided value (the scenario harness's common
// participant entry point).
func (c *RegisterConsensus) Run(ctx context.Context, input any) (any, error) {
	return c.Propose(ctx, input)
}

// lead runs one ballot; it returns (true, v) on decision and (false, nil) if
// the ballot was preempted by a higher one.
func (c *RegisterConsensus) lead(ctx context.Context, proposal Value) (bool, Value, error) {
	b := c.nextBallot()
	own := c.regs[int(c.id)]

	// Phase 1: announce the ballot in our own register, then read everyone.
	cur, err := own.Read(ctx)
	if err != nil {
		return false, nil, fmt.Errorf("register consensus: phase1 self read: %w", err)
	}
	cur.MBal = b
	if err := own.Write(ctx, cur); err != nil {
		return false, nil, fmt.Errorf("register consensus: phase1 write: %w", err)
	}
	states, err := c.readAll(ctx)
	if err != nil {
		return false, nil, err
	}
	value := proposal
	bestBal := Ballot(-1)
	for _, st := range states {
		if st.MBal > b {
			c.observe(st.MBal)
			return false, nil, nil
		}
		if st.Has && st.Bal > bestBal {
			bestBal = st.Bal
			value = st.Val
		}
	}

	// Phase 2: record (bal=b, val=value) in our own register, then re-read.
	if err := own.Write(ctx, RoundState{MBal: b, Bal: b, Val: value, Has: true}); err != nil {
		return false, nil, fmt.Errorf("register consensus: phase2 write: %w", err)
	}
	states, err = c.readAll(ctx)
	if err != nil {
		return false, nil, err
	}
	for _, st := range states {
		if st.MBal > b {
			c.observe(st.MBal)
			return false, nil, nil
		}
	}

	// Decided: publish through the decision register.
	if err := c.dec.Write(ctx, DecisionState{Decided: true, Val: value}); err != nil {
		return false, nil, fmt.Errorf("register consensus: decision write: %w", err)
	}
	return true, value, nil
}

func (c *RegisterConsensus) readAll(ctx context.Context) ([]RoundState, error) {
	states := make([]RoundState, c.n)
	for i := 0; i < c.n; i++ {
		st, err := c.regs[i].Read(ctx)
		if err != nil {
			return nil, fmt.Errorf("register consensus: read of reg[%d]: %w", i, err)
		}
		states[i] = st
	}
	return states, nil
}

func (c *RegisterConsensus) observe(b Ballot) {
	if b > c.maxSeen {
		c.maxSeen = b
	}
}

func (c *RegisterConsensus) nextBallot() Ballot {
	n := Ballot(c.n)
	id := Ballot(c.id)
	round := c.maxSeen/n + 1
	b := round*n + id
	if b <= c.maxSeen {
		b += n
	}
	c.maxSeen = b
	return b
}
