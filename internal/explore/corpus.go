package explore

import (
	"fmt"
	"sort"
	"strings"
)

// SpaceFingerprint is the identity of an exploration's search space:
// everything in the options that shapes which configurations get probed and
// what the per-seed result is — the protocol, the base config (seed zeroed
// out), the class alphabet, the run budget, the generation size, the
// minimisation cap and the depth-signal switch — and nothing that does not
// (the seed itself, wall budget, worker count, callbacks). Two explorations
// with equal space fingerprints and different seeds are independent samples
// of one campaign's space, which is what lets campaign merge fold their
// reports: the merged result is a pure function of (fingerprint, seed set).
// No minimisation renders as minimize=-1.
func SpaceFingerprint(opts Options) string {
	batch := opts.Batch
	if batch <= 0 {
		batch = defaultBatch
	}
	minimize := opts.MinimizeLimit
	if minimize <= 0 {
		minimize = -1
	}
	base := opts.Base
	base.Seed = 0
	proto := ""
	if opts.Proto != nil {
		proto = opts.Proto.Name()
	}
	classes := make([]string, len(opts.Classes))
	for i, c := range opts.Classes {
		classes[i] = c.String()
	}
	// The trace signal renders as its signature depth, not a boolean:
	// "probes" marks the probe-deepened shapes (runs carry Config.Probes and
	// traceShape folds probe statistics in), which partition behaviours more
	// finely than the plain counters did — a different search space, so a
	// different fingerprint.
	traceTag := "false"
	if opts.TraceSignal {
		traceTag = "probes"
	}
	return fmt.Sprintf("explore{proto=%s;base=%s;classes=%s;runs=%d;batch=%d;minimize=%d;depth=%t;trace=%s}",
		proto, base.Key(), strings.Join(classes, ","), opts.Runs, batch, minimize, opts.DepthSignal, traceTag)
}

// Corpus persistence: the exploration's full resumable state — corpus
// entries with their energies, the behaviour set and the failure dedup set.
// It travels inside the explore report (Report's corpus, behaviours and
// failure_sigs) and inside a merged campaign report (its explore.corpus); a
// later exploration seeded with the state (Options.SeedCorpus) continues
// where this one stopped, and campaign generations hand corpora to each
// other through those reports.
//
// Entries keep their discovery order, so Parent indices stay valid within
// one serialized corpus. Merging corpora (campaign.MergeCorpora) has no
// shared discovery order to preserve, so merged entries are re-sorted by
// signature and their Parent links cleared — provenance fields survive a
// merge as annotations only.

// CorpusVersion is the schema version of a merged report's corpus state;
// loaders reject versions newer than they understand.
const CorpusVersion = 1

// CorpusState is the seedable exploration state: Options.SeedCorpus, and
// the shape of a merged campaign report's corpus.
type CorpusState struct {
	SchemaVersion int `json:"schema_version"`
	// Entries is the corpus; within one exploration's serialization, in
	// discovery order.
	Entries []Entry `json:"entries,omitempty"`
	// Behaviours is the sorted set of behaviour parts already seen — the
	// hot-entry novelty judgement of the energy schedule.
	Behaviours []string `json:"behaviours,omitempty"`
	// FailureSigs is the sorted failure dedup set: signatures whose
	// failures have already been reported, so a resumed exploration does
	// not re-report them.
	FailureSigs []string `json:"failure_sigs,omitempty"`
}

// CorpusState extracts the report's resumable corpus state: the seed an
// explore report (cliutil.ExploreReport embeds Report) hands the next
// exploration.
func (r *Report) CorpusState() *CorpusState {
	st := &CorpusState{
		SchemaVersion: CorpusVersion,
		Entries:       append([]Entry(nil), r.Corpus...),
		Behaviours:    append([]string(nil), r.Behaviours...),
		FailureSigs:   append([]string(nil), r.FailureSigs...),
	}
	sort.Strings(st.Behaviours)
	sort.Strings(st.FailureSigs)
	return st
}

// sortedKeys returns the map's keys, sorted.
func sortedKeys(m map[string]bool) []string {
	if len(m) == 0 {
		return nil
	}
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
