package register

import (
	"weakestfd/internal/fd"
	"weakestfd/internal/model"
	"weakestfd/internal/net"
	"weakestfd/internal/quorum"
)

// Group is the set of register handles of all processes for one replicated
// register instance; index i is process i's handle.
type Group[V any] []*Register[V]

// Stop stops every replica in the group.
func (g Group[V]) Stop() {
	for _, r := range g {
		r.Stop()
	}
}

// NewSigmaGroup builds a Σ-based register group over every process of the
// network: process i's replica waits on quorums output by sigma's module at
// process i. This is the sufficiency construction of Theorem 1.
func NewSigmaGroup[V any](nw *net.Network, instance string, sigma fd.SigmaSource) Group[V] {
	g := make(Group[V], nw.N())
	for i := 0; i < nw.N(); i++ {
		ep := nw.Endpoint(model.ProcessID(i))
		bound := fd.BindTo(ep.ID(), sigma, nw.Clock())
		g[i] = New[V](ep, instance, quorum.SigmaGuard{Source: bound})
	}
	return g
}

// NewMajorityGroup builds the classical majority-based ABD register group
// (the baseline of experiment E2); it needs no failure detector but is
// correct only in majority-correct environments.
func NewMajorityGroup[V any](nw *net.Network, instance string) Group[V] {
	g := make(Group[V], nw.N())
	for i := 0; i < nw.N(); i++ {
		ep := nw.Endpoint(model.ProcessID(i))
		g[i] = New[V](ep, instance, quorum.MajorityGuard{N: nw.N()})
	}
	return g
}
