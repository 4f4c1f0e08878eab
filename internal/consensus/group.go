package consensus

import (
	"fmt"

	"weakestfd/internal/fd"
	"weakestfd/internal/model"
	"weakestfd/internal/net"
	"weakestfd/internal/quorum"
	"weakestfd/internal/register"
)

// Group is the set of ballot-consensus participants of one instance, indexed
// by process id.
type Group []*BallotConsensus

// Stop stops every participant.
func (g Group) Stop() {
	for _, c := range g {
		c.Stop()
	}
}

// newGroup allocates the shared machinery and one contiguous slab of
// participants, wiring each through init with the guard returned by guardAt.
// Sharing one options struct and one stop channel across the group keeps the
// per-participant setup cost to the struct and the handler registration; the
// Ω bindings come as one slab whose elements are boxed by pointer, which
// allocates nothing per participant.
func newGroup(nw *net.Network, instance string, omega fd.OmegaSource, guardAt func(i int) quorum.Guard, opts []Option) Group {
	n := nw.N()
	o := resolveOptions(opts)
	stop := newStopper()
	name := "cons." + instance
	omegas := fd.BindAll(omega, nw.Clock(), n)
	parts := make([]BallotConsensus, n)
	g := make(Group, n)
	for i := 0; i < n; i++ {
		ep := nw.Endpoint(model.ProcessID(i))
		parts[i].init(ep, ep.Instance(name), &omegas[i], guardAt(i), o, stop)
		g[i] = &parts[i]
	}
	return g
}

// NewOmegaSigmaGroup builds the (Ω, Σ) consensus of Corollary 2 over every
// process of the network: leadership comes from omega's module at each
// process, quorums from sigma's.
func NewOmegaSigmaGroup(nw *net.Network, instance string, omega fd.OmegaSource, sigma fd.SigmaSource, opts ...Option) Group {
	sigmas := fd.BindAll(sigma, nw.Clock(), nw.N())
	guards := make([]quorum.SigmaGuard, nw.N())
	for i := range guards {
		guards[i] = quorum.SigmaGuard{Source: &sigmas[i]}
	}
	return newGroup(nw, instance, omega, func(i int) quorum.Guard { return &guards[i] }, opts)
}

// NewOmegaMajorityGroup builds the classical Ω-plus-majority consensus (the
// regime of [4], baseline of experiment E5): same protocol, but quorums are
// plain majorities, so liveness is lost once a majority has crashed.
func NewOmegaMajorityGroup(nw *net.Network, instance string, omega fd.OmegaSource, opts ...Option) Group {
	var guard quorum.Guard = quorum.MajorityGuard{N: nw.N()}
	return newGroup(nw, instance, omega, func(int) quorum.Guard { return guard }, opts)
}

// RegisterGroup is the set of register-based consensus participants of one
// instance together with the register groups they run on.
type RegisterGroup struct {
	Participants []*RegisterConsensus
	regGroups    []register.Group[RoundState]
	decGroup     register.Group[DecisionState]
}

// Stop stops all underlying register replicas.
func (g *RegisterGroup) Stop() {
	for _, rg := range g.regGroups {
		rg.Stop()
	}
	g.decGroup.Stop()
}

// NewRegisterConsensusGroup builds the paper's register route for Corollary 2
// over every process: n single-writer round registers plus one decision
// register, all implemented from Σ, plus Ω for leadership.
func NewRegisterConsensusGroup(nw *net.Network, instance string, omega fd.OmegaSource, sigma fd.SigmaSource) *RegisterGroup {
	n := nw.N()
	g := &RegisterGroup{
		Participants: make([]*RegisterConsensus, n),
		regGroups:    make([]register.Group[RoundState], n),
	}
	for owner := 0; owner < n; owner++ {
		g.regGroups[owner] = register.NewSigmaGroup[RoundState](nw, fmt.Sprintf("%s.r%d", instance, owner), sigma)
	}
	g.decGroup = register.NewSigmaGroup[DecisionState](nw, instance+".dec", sigma)

	for i := 0; i < n; i++ {
		p := model.ProcessID(i)
		regs := make([]*register.Register[RoundState], n)
		for owner := 0; owner < n; owner++ {
			regs[owner] = g.regGroups[owner][i]
		}
		g.Participants[i] = NewRegisterConsensus(RegisterConsensusConfig{
			ID:    p,
			EP:    nw.Endpoint(p),
			Omega: fd.BindTo(p, omega, nw.Clock()),
			Regs:  regs,
			Dec:   g.decGroup[i],
		})
	}
	return g
}
