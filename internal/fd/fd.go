// Package fd defines the failure-detector abstractions of the paper and their
// oracle-backed realisations.
//
// The package is built around one generic pair of interfaces:
//
//   - Source[V] is a system-wide detector D: a single object modelling the
//     whole failure-detector history, queried as H(p, t) — At carries the
//     identity of the querying process, the time is whatever the source's
//     clock says.
//   - Detector[V] is the per-process module: the view a protocol running at
//     one process has of its local failure-detector module. Bind[V] is the
//     one adapter connecting a Source to a process; it optionally records
//     every sample into a model.History so runs can be checked against the
//     formal specifications.
//
// The classes of the paper (and of Chandra–Toueg) are thin aliases over the
// generic pair, differing only in the value type V they output:
//
//	Omega    = Detector[model.ProcessID]  — leader hints
//	Sigma    = Detector[model.ProcessSet] — quorums
//	FS       = Detector[model.FSValue]    — failure signal
//	Psi      = Detector[model.PsiValue]   — the NBAC detector Ψ
//	Suspects = Detector[model.ProcessSet] — Chandra–Toueg suspect lists
//
// so protocol packages read naturally while every piece of binding, history
// recording and quality perturbation is implemented exactly once.
//
// Which concrete family a run gets is declarative: a DetectorSpec names a
// class ("omega-sigma", "perfect", "eventually-perfect", "eventually-strong")
// plus quality parameters, and the Registry builds the corresponding Suite of
// sources over a live model.FailurePattern. The oracle detectors read the
// live pattern maintained by the runtime (internal/net); they are exact
// realisations of the definitions in Section 2 and Section 6.1 of the paper.
// The message-passing implementations (which need extra assumptions such as
// a correct majority or partial synchrony) live in internal/fdimpl.
package fd

import (
	"weakestfd/internal/model"
)

// TimeSource provides the current logical time; *net.Clock satisfies it.
type TimeSource interface {
	Now() model.Time
}

// Detector is the per-process view of a failure detector with range V: each
// query samples the module's current output.
type Detector[V any] interface {
	Sample() V
}

// Source is a system-wide failure detector with range V: At(p) is the
// paper's H(p, t), the output of p's module at the current time.
type Source[V any] interface {
	At(p model.ProcessID) V
}

// Omega is the per-process view of the leader detector Ω: it outputs the id
// of a process, and eventually outputs the id of the same correct process at
// all correct processes.
type Omega = Detector[model.ProcessID]

// Sigma is the per-process view of the quorum detector Σ: it outputs a set of
// processes such that any two outputs (at any processes and times) intersect,
// and eventually every output at a correct process contains only correct
// processes.
type Sigma = Detector[model.ProcessSet]

// FS is the per-process view of the failure-signal detector: green while no
// failure has occurred; after a failure occurs (and only then) it eventually
// outputs red permanently at every correct process.
type FS = Detector[model.FSValue]

// Psi is the per-process view of the detector Ψ (Section 6.1): ⊥ for an
// initial period, then either an FS behaviour (allowed only if a failure
// occurred) or an (Ω, Σ) behaviour, with all processes making the same choice.
type Psi = Detector[model.PsiValue]

// Suspects is the per-process view of a Chandra–Toueg-style detector
// (P, ◇P, ◇S): it outputs the set of processes it currently suspects to have
// crashed. The class determines which completeness/accuracy clauses the
// output obeys.
type Suspects = Detector[model.ProcessSet]

// OmegaSource is a system-wide Ω.
type OmegaSource = Source[model.ProcessID]

// SigmaSource is a system-wide Σ.
type SigmaSource = Source[model.ProcessSet]

// FSSource is a system-wide FS.
type FSSource = Source[model.FSValue]

// PsiSource is a system-wide Ψ.
type PsiSource = Source[model.PsiValue]

// SuspectSource is a system-wide suspect-list detector (P, ◇P or ◇S).
type SuspectSource = Source[model.ProcessSet]
