package explore

import (
	"fmt"
	"strings"
	"time"
)

// Report is everything one exploration produced. All fields except Elapsed
// and RunsPerSec are deterministic per Options.Seed (for schedule-determined
// protocols and no wall budget); Canonical renders exactly
// that deterministic content, byte-stably — the form the determinism tests
// compare and external tooling may diff. Its JSON fields are the explore
// report's (cliutil.ExploreReport embeds it and adds provenance), which
// carries the full corpus state: any explore report is a seed corpus.
type Report struct {
	Seed  int64  `json:"seed"`
	Proto string `json:"proto"`
	N     int    `json:"n"`
	// Budget is the requested run budget; Runs is how many actually
	// executed (less than Budget when a wall budget or cancellation ended
	// the exploration early).
	Budget int `json:"budget"`
	Runs   int `json:"runs"`
	// Novel and Duplicates partition the executed runs by whether their
	// signature was new (Novel == len(Corpus)); Cancelled counts budget
	// swallowed by context cancellation.
	Novel      int `json:"novel"`
	Duplicates int `json:"duplicates"`
	Cancelled  int `json:"cancelled,omitempty"`
	// FirstFailureRun is the 1-based run index of the first spec violation
	// (0 = none found) — the number to compare against a uniform grid's
	// runs-to-first-failure.
	FirstFailureRun int `json:"first_failure_run,omitempty"`
	// Corpus is the novelty corpus in discovery order (seeded entries, if
	// any, first in their stored order). Novel counts its length, seeded
	// entries included.
	Corpus []Entry `json:"corpus,omitempty"`
	// Behaviours is the sorted set of behaviour parts seen (including ones
	// restored from a seed corpus); FailureSigs the sorted failure dedup
	// set. Together with Corpus they are the full resumable corpus state —
	// see CorpusState.
	Behaviours  []string `json:"behaviours,omitempty"`
	FailureSigs []string `json:"failure_sigs,omitempty"`
	// Mutators aggregates applied/novel counts per mutator, in first-use
	// order.
	Mutators []*MutatorStat `json:"mutators,omitempty"`
	// Failures are the found failing behaviour classes, deduplicated by
	// signature, in discovery order.
	Failures []Failure `json:"failures,omitempty"`
	// Minimized holds the delta-debugged reproducers (deduplicated by
	// minimal fingerprint); MinimizeCandidates counts the candidate runs
	// the minimisation phase spent on top of the exploration budget.
	Minimized          []MinimizedFailure `json:"minimized,omitempty"`
	MinimizeCandidates int                `json:"minimize_candidates,omitempty"`
	// Elapsed and RunsPerSec are wall-clock measurements: real but not
	// reproducible, hence excluded from Canonical and from the report's
	// deterministic fields (the report renders them as provenance).
	Elapsed    time.Duration `json:"-"`
	RunsPerSec float64       `json:"-"`
}

// Canonical renders the report's deterministic content byte-stably: the
// whole exploration as a function of the seed, with the wall-clock
// measurements left out. Two explorations of the same Options must render
// identically — that is the package's reproducibility contract, pinned by
// the determinism tests.
func (r *Report) Canonical() string {
	var b strings.Builder
	fmt.Fprintf(&b, "explore seed=%d proto=%s n=%d budget=%d runs=%d novel=%d dup=%d cancelled=%d first_failure_run=%d\n",
		r.Seed, r.Proto, r.N, r.Budget, r.Runs, r.Novel, r.Duplicates, r.Cancelled, r.FirstFailureRun)
	b.WriteString("corpus:\n")
	for i, e := range r.Corpus {
		fmt.Fprintf(&b, "  %d: run=%d parent=%d via=%s picks=%d children=%d failing=%t sig=%s\n",
			i, e.FoundAtRun, e.Parent, e.Mutator, e.Picks, e.Children, e.Failing, e.Signature)
	}
	b.WriteString("mutators:\n")
	for _, m := range r.Mutators {
		fmt.Fprintf(&b, "  %s: applied=%d novel=%d\n", m.Name, m.Applied, m.Novel)
	}
	if len(r.Failures) > 0 {
		b.WriteString("failures:\n")
		for _, f := range r.Failures {
			fmt.Fprintf(&b, "  run=%d sig=%s violations=%v\n", f.Run, f.Signature, f.Violations)
			writeIndented(&b, f.Fingerprint)
		}
	}
	if len(r.Minimized) > 0 {
		fmt.Fprintf(&b, "minimized (candidates=%d):\n", r.MinimizeCandidates)
		for _, m := range r.Minimized {
			fmt.Fprintf(&b, "  from_run=%d candidates=%d violations=%v\n", m.FromRun, m.Candidates, m.Violations)
			writeIndented(&b, m.Fingerprint)
		}
	}
	return b.String()
}

// writeIndented writes a multi-line fingerprint at uniform indentation.
func writeIndented(b *strings.Builder, s string) {
	for _, line := range strings.Split(strings.TrimRight(s, "\n"), "\n") {
		fmt.Fprintf(b, "    %s\n", line)
	}
}
