package model

import (
	"fmt"
	"sort"
	"sync"
)

// FSValue is the range of the failure-signal detector FS: green or red.
type FSValue int

// Values of FS.
const (
	Green FSValue = iota
	Red
)

// String implements fmt.Stringer.
func (v FSValue) String() string {
	if v == Red {
		return "red"
	}
	return "green"
}

// OmegaSigmaValue is a sample of the composed detector (Omega, Sigma): a
// leader hint and a quorum.
type OmegaSigmaValue struct {
	Leader ProcessID
	Quorum ProcessSet
}

// String implements fmt.Stringer.
func (v OmegaSigmaValue) String() string {
	return fmt.Sprintf("(leader=%v, quorum=%v)", v.Leader, v.Quorum)
}

// PsiPhase identifies which regime a Psi sample belongs to.
type PsiPhase int

// Phases of Psi: the initial ⊥ phase, the FS regime, and the (Omega, Sigma)
// regime.
const (
	PsiBottom PsiPhase = iota
	PsiFS
	PsiOmegaSigma
)

// String implements fmt.Stringer.
func (p PsiPhase) String() string {
	switch p {
	case PsiBottom:
		return "⊥"
	case PsiFS:
		return "FS"
	case PsiOmegaSigma:
		return "(Ω,Σ)"
	default:
		return fmt.Sprintf("PsiPhase(%d)", int(p))
	}
}

// PsiValue is a sample of the detector Psi. Exactly one regime is meaningful,
// selected by Phase: Bottom carries no data, FS carries an FSValue, and
// OmegaSigma carries an OmegaSigmaValue.
type PsiValue struct {
	Phase PsiPhase
	FS    FSValue
	OS    OmegaSigmaValue
}

// String implements fmt.Stringer.
func (v PsiValue) String() string {
	switch v.Phase {
	case PsiBottom:
		return "⊥"
	case PsiFS:
		return "FS:" + v.FS.String()
	case PsiOmegaSigma:
		return "ΩΣ:" + v.OS.String()
	default:
		return fmt.Sprintf("PsiValue(%d)", int(v.Phase))
	}
}

// Sample is one recorded failure-detector output: process p saw value V at
// (logical) time T. The concrete type of Value depends on the detector:
// ProcessID for Omega, ProcessSet for Sigma, FSValue for FS, PsiValue for Psi,
// OmegaSigmaValue for the pair.
type Sample struct {
	Process ProcessID
	Time    Time
	Value   any
}

// History is a finite record of failure-detector samples, the executable
// counterpart of the paper's failure-detector history H : Π × T → R. Samples
// are appended by the runtime as processes query their
// detector modules; the specification checkers in spec.go consume it.
//
// By default a history grows without bound — every query of a bound detector
// records a sample, which is what the checkers need but is a real memory
// hazard for count-only million-run sweeps. SetLimit (or NewHistoryWithLimit)
// opts into a ring of the most recent samples instead; checkers then see a
// sliding window, so perpetual clauses are only checked over the retained
// suffix — keep full recording for checker paths and cap only where the
// history is informational.
//
// A History is safe for concurrent use.
type History struct {
	mu      sync.Mutex
	samples []Sample
	// limit > 0 makes samples a ring of the most recent limit entries;
	// start is the ring head (index of the oldest retained sample).
	limit   int
	start   int
	dropped int64
}

// NewHistory returns an empty, unbounded history.
func NewHistory() *History { return &History{} }

// NewHistoryWithLimit returns an empty history retaining at most limit
// samples (the most recent ones); limit <= 0 means unbounded.
func NewHistoryWithLimit(limit int) *History {
	h := &History{}
	h.SetLimit(limit)
	return h
}

// SetLimit caps the history at the most recent limit samples, dropping the
// oldest ones now if it already holds more; limit <= 0 removes the cap.
func (h *History) SetLimit(limit int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.linearize()
	if limit > 0 && len(h.samples) > limit {
		h.dropped += int64(len(h.samples) - limit)
		h.samples = append([]Sample(nil), h.samples[len(h.samples)-limit:]...)
	}
	h.limit = limit
}

// linearize restores recording order in h.samples (ring head back to 0).
// Callers must hold h.mu.
func (h *History) linearize() {
	if h.start == 0 {
		return
	}
	out := make([]Sample, 0, len(h.samples))
	out = append(out, h.samples[h.start:]...)
	out = append(out, h.samples[:h.start]...)
	h.samples, h.start = out, 0
}

// Record appends a sample; with a limit set, the oldest retained sample is
// dropped once the ring is full.
func (h *History) Record(p ProcessID, t Time, v any) {
	h.mu.Lock()
	defer h.mu.Unlock()
	s := Sample{Process: p, Time: t, Value: v}
	if h.limit > 0 && len(h.samples) == h.limit {
		h.samples[h.start] = s
		h.start = (h.start + 1) % h.limit
		h.dropped++
		return
	}
	h.samples = append(h.samples, s)
}

// Len returns the number of retained samples.
func (h *History) Len() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.samples)
}

// Dropped returns how many samples the ring limit has discarded; 0 for an
// unbounded history.
func (h *History) Dropped() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.dropped
}

// Samples returns a copy of the retained samples in recording order.
func (h *History) Samples() []Sample {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]Sample, 0, len(h.samples))
	out = append(out, h.samples[h.start:]...)
	out = append(out, h.samples[:h.start]...)
	return out
}

// ByProcess returns, for each process, its samples sorted by time (stable in
// recording order for equal times).
func (h *History) ByProcess() map[ProcessID][]Sample {
	all := h.Samples()
	out := make(map[ProcessID][]Sample)
	for _, s := range all {
		out[s.Process] = append(out[s.Process], s)
	}
	for p := range out {
		ss := out[p]
		sort.SliceStable(ss, func(i, j int) bool { return ss[i].Time < ss[j].Time })
	}
	return out
}
