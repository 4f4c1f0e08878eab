// Package qc implements quittable consensus (QC, Section 5): like consensus,
// except that processes may agree on the special value Quit when (and only
// when) a failure has occurred.
//
// The package provides the sufficiency half of the paper's Theorem 5: the
// algorithm of Figure 2, which solves QC in any environment given the failure
// detector Ψ. Each process waits for its Ψ module to leave ⊥; if Ψ starts
// behaving like FS (which it may do only after a failure), the process
// returns Quit, otherwise Ψ behaves like (Ω, Σ) and the process runs the
// (Ω, Σ)-based consensus of internal/consensus on its proposal.
//
// The converse construction — extracting Ψ from an arbitrary QC algorithm
// (Figure 3) — is not implemented. The reduction between QC and NBAC
// (Figures 4 and 5) lives in internal/nbac.
package qc

import (
	"context"
	"fmt"
	"time"

	"weakestfd/internal/consensus"
	"weakestfd/internal/fd"
	"weakestfd/internal/model"
	"weakestfd/internal/net"
	"weakestfd/internal/quorum"
)

// Value is a proposed or decided (non-Quit) value; it must be comparable.
type Value = consensus.Value

// Decision is the outcome of a QC instance: either Quit, or a regular decided
// value.
type Decision struct {
	Quit  bool
	Value Value
}

// String implements fmt.Stringer.
func (d Decision) String() string {
	if d.Quit {
		return "Q"
	}
	return fmt.Sprintf("%v", d.Value)
}

// QC is a single-shot quittable-consensus instance at one process. Both the
// Ψ-based algorithm of this package and the NBAC-based transformation in
// internal/nbac satisfy it.
type QC interface {
	Propose(ctx context.Context, v Value) (Decision, error)
}

// PsiQC is the algorithm of Figure 2: quittable consensus from Ψ.
type PsiQC struct {
	ep   *net.Endpoint
	psi  fd.Psi
	cons *consensus.BallotConsensus
}

// NewPsiQC creates the participant for the process behind ep in the QC
// instance named by instance, using psi as its local Ψ module. The embedded
// consensus participant extracts its Ω and Σ from Ψ's (Ω, Σ) regime, exactly
// as line 6 of Figure 2 prescribes.
func NewPsiQC(ep *net.Endpoint, instance string, psi fd.Psi) *PsiQC {
	shared := psiOmegaSigma{self: ep.ID(), n: ep.N(), psi: psi}
	cons := consensus.NewBallotConsensus(ep, "qc."+instance, psiOmega{shared}, quorum.SigmaGuard{Source: psiSigma{shared}})
	return &PsiQC{ep: ep, psi: psi, cons: cons}
}

// Stop shuts down the embedded consensus participant.
func (q *PsiQC) Stop() { q.cons.Stop() }

// Propose runs Figure 2 with proposal v.
func (q *PsiQC) Propose(ctx context.Context, v Value) (Decision, error) {
	ctx, release := net.AdoptTask(ctx, q.ep, "qc.propose")
	defer release()

	// Line 1: wait until Ψ leaves ⊥, re-sampling every 1ms of virtual time.
	// Each poll tick is a "nop" step of Figure 2 and, like every step,
	// advances the global logical clock. The poll's crash check comes before
	// the sample: a process that is already down when Ψ has switched must not
	// fall through to a decision.
	poll := q.ep.NewPoll(ctx, time.Millisecond)
	err := poll.Until(ctx, func(bool) (bool, error) {
		return q.psi.Sample().Phase != model.PsiBottom, nil
	})
	// Release the lease before blocking in the embedded consensus, whose
	// waits ride their own poll.
	poll.Stop()
	if err != nil {
		return Decision{}, fmt.Errorf("qc propose: %w", err)
	}

	// Lines 2-4: if Ψ behaves like FS, a failure has occurred; return Quit.
	if q.psi.Sample().Phase == model.PsiFS {
		return Decision{Quit: true}, nil
	}

	// Lines 5-7: Ψ behaves like (Ω, Σ); run the (Ω, Σ) consensus.
	d, err := q.cons.Propose(ctx, v)
	if err != nil {
		return Decision{}, fmt.Errorf("qc propose: %w", err)
	}
	return Decision{Value: d}, nil
}

// Run executes one single-shot quittable consensus at this participant: it
// proposes input and returns the Decision (the scenario harness's common
// participant entry point).
func (q *PsiQC) Run(ctx context.Context, input any) (any, error) {
	d, err := q.Propose(ctx, input)
	if err != nil {
		return nil, err
	}
	return d, nil
}

// psiOmegaSigma carries the Ψ module its two projections share: psiOmega and
// psiSigma expose a Ψ in its (Ω, Σ) regime as the Omega and Sigma modules the
// consensus protocol needs. Before Ψ has switched (which only happens if a
// projection is queried outside Figure 2's order), they fall back to trusting
// the local process and the full process set — safe defaults that cannot
// violate quorum intersection.
type psiOmegaSigma struct {
	self model.ProcessID
	n    int
	psi  fd.Psi
}

// psiOmega is the Ω projection of a Ψ module.
type psiOmega struct{ psiOmegaSigma }

// Sample implements fd.Omega.
func (a psiOmega) Sample() model.ProcessID {
	v := a.psi.Sample()
	if v.Phase == model.PsiOmegaSigma {
		return v.OS.Leader
	}
	return a.self
}

// psiSigma is the Σ projection of a Ψ module.
type psiSigma struct{ psiOmegaSigma }

// Sample implements fd.Sigma (and quorum.SigmaSource).
func (a psiSigma) Sample() model.ProcessSet {
	v := a.psi.Sample()
	if v.Phase == model.PsiOmegaSigma {
		return v.OS.Quorum
	}
	return model.AllProcesses(a.n)
}

var (
	_ fd.Omega = psiOmega{}
	_ fd.Sigma = psiSigma{}
)

// Group is the set of Ψ-based QC participants of one instance, indexed by
// process id.
type Group []*PsiQC

// Stop stops every participant.
func (g Group) Stop() {
	for _, q := range g {
		q.Stop()
	}
}

// NewPsiGroup builds a QC participant for every process of the network, each
// bound to its module of the system-wide Ψ source.
func NewPsiGroup(nw *net.Network, instance string, psi fd.PsiSource) Group {
	g := make(Group, nw.N())
	for i := 0; i < nw.N(); i++ {
		ep := nw.Endpoint(model.ProcessID(i))
		bound := fd.BindTo(ep.ID(), psi, nw.Clock())
		g[i] = NewPsiQC(ep, instance, bound)
	}
	return g
}
