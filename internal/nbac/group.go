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

// Group is the set of (Ψ, FS)-based NBAC participants of one instance,
// indexed by process id, together with the embedded QC participants it owns.
type Group struct {
	Participants []*QCNBAC
	qcGroup      qc.Group
}

// Stop stops the embedded QC participants.
func (g *Group) Stop() { g.qcGroup.Stop() }

// NewPsiFSGroup builds, for every process of the network, the NBAC stack of
// Corollary 10: a Ψ-based QC participant (Figure 2) wrapped by the Figure 4
// transformation with an FS module. This is the sufficiency construction for
// "(Ψ, FS) solves NBAC in any environment".
func NewPsiFSGroup(nw *net.Network, instance string, psi fd.PsiSource, fs fd.FSSource) *Group {
	qcGroup := qc.NewPsiGroup(nw, instance, psi)
	g := &Group{
		Participants: make([]*QCNBAC, nw.N()),
		qcGroup:      qcGroup,
	}
	for i := 0; i < nw.N(); i++ {
		ep := nw.Endpoint(model.ProcessID(i))
		boundFS := fd.BindTo(ep.ID(), fs, nw.Clock())
		g.Participants[i] = NewQCNBAC(ep, instance, boundFS, qcGroup[i])
	}
	return g
}

// NewTwoPCGroup builds the blocking two-phase-commit baseline for every
// process, with the given coordinator.
func NewTwoPCGroup(nw *net.Network, instance string, coordinator model.ProcessID) []*TwoPC {
	out := make([]*TwoPC, nw.N())
	for i := 0; i < nw.N(); i++ {
		out[i] = NewTwoPC(nw.Endpoint(model.ProcessID(i)), instance, coordinator)
	}
	return out
}

// QCGroupFromNBAC builds, for every process, a QC participant obtained from
// an NBAC protocol by the Figure 5 transformation. Together with
// NewPsiFSGroup it exercises both directions of Theorem 8.
type QCGroupFromNBAC struct {
	Participants []*NBACQC
	nbacGroup    *Group
}

// Stop stops the underlying NBAC stack.
func (g *QCGroupFromNBAC) Stop() { g.nbacGroup.Stop() }

// NewQCFromNBACGroup stacks Figure 5 on top of the (Ψ, FS)-based NBAC of
// NewPsiFSGroup: QC → NBAC → QC, the round trip used by the equivalence
// tests.
func NewQCFromNBACGroup(nw *net.Network, instance string, psi fd.PsiSource, fs fd.FSSource) *QCGroupFromNBAC {
	nbacGroup := NewPsiFSGroup(nw, instance+".inner", psi, fs)
	g := &QCGroupFromNBAC{
		Participants: make([]*NBACQC, nw.N()),
		nbacGroup:    nbacGroup,
	}
	for i := 0; i < nw.N(); i++ {
		ep := nw.Endpoint(model.ProcessID(i))
		g.Participants[i] = NewNBACQC(ep, instance, nbacGroup.Participants[i])
	}
	return g
}

// FSEmulationGroup runs the FS-from-NBAC emulation (Theorem 8(b)) at every
// process: each round k, every process votes Yes in a fresh (Ψ, FS)-based
// NBAC instance named "<instance>.k"; the emulated signal turns red at the
// first Abort.
type FSEmulationGroup struct {
	Emulators []*FSFromNBAC

	mu        sync.Mutex
	instances map[int]*Group
}

// StopAll stops the emulators and every NBAC instance they created.
func (g *FSEmulationGroup) StopAll() {
	for _, e := range g.Emulators {
		e.Stop()
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	for _, grp := range g.instances {
		grp.Stop()
	}
}

// NewFSEmulationGroup starts the emulation on every process of the network.
// Successive NBAC instances are created lazily and shared across processes.
// ctx bounds the whole emulation: cancelling it stops every emulator without
// requiring a StopAll call.
func NewFSEmulationGroup(ctx context.Context, nw *net.Network, instance string, psi fd.PsiSource, fs fd.FSSource, interval time.Duration) *FSEmulationGroup {
	g := &FSEmulationGroup{instances: make(map[int]*Group)}

	factory := func(p int) func(k int) Protocol {
		return func(k int) Protocol {
			g.mu.Lock()
			defer g.mu.Unlock()
			grp, ok := g.instances[k]
			if !ok {
				grp = NewPsiFSGroup(nw, fmt.Sprintf("%s.%d", instance, k), psi, fs)
				g.instances[k] = grp
			}
			return grp.Participants[p]
		}
	}

	g.Emulators = make([]*FSFromNBAC, nw.N())
	for i := 0; i < nw.N(); i++ {
		g.Emulators[i] = StartFSFromNBAC(ctx, nw.Endpoint(model.ProcessID(i)), factory(i), interval)
	}
	return g
}
