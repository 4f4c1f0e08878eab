package campaign

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"

	"weakestfd/internal/cliutil"
	"weakestfd/internal/explore"
	"weakestfd/internal/probe"
)

// Merging is a fold with no order: every combinator here unions by a
// canonical key and resolves collisions by taking the element with the
// lexicographically smallest canonical JSON encoding — a total order, so
// min-of-set is commutative, associative and idempotent, which is what the
// property tests pin. Provenance that only makes sense within one
// exploration's discovery order (corpus Parent indices) is normalised away
// before comparison, so the same entry arriving via different merge
// groupings encodes — and therefore compares and wins — identically.

// MergeCorpora unions explore corpora by signature, deterministically and
// order-independently: merge(a,b) == merge(b,a) byte-for-byte, and merges
// nest associatively. Entries are normalised (Parent cleared to −1 — there
// is no shared discovery order for it to index into) and sorted by
// signature; the behaviour and failure-dedup sets union sorted. The result
// is a valid Options.SeedCorpus for the next generation of explorations.
func MergeCorpora(states ...*explore.CorpusState) (*explore.CorpusState, error) {
	out := &explore.CorpusState{SchemaVersion: explore.CorpusVersion}
	bySig := map[string]explore.Entry{}
	behaviours := map[string]bool{}
	failSigs := map[string]bool{}
	for i, st := range states {
		if st == nil {
			continue
		}
		if st.SchemaVersion > explore.CorpusVersion {
			return nil, fmt.Errorf("merge corpora: input %d: schema_version %d is newer than supported version %d", i, st.SchemaVersion, explore.CorpusVersion)
		}
		for _, e := range st.Entries {
			e.Parent = -1
			old, seen := bySig[e.Signature]
			if !seen || encodeLess(e, old) {
				bySig[e.Signature] = e
			}
		}
		for _, b := range st.Behaviours {
			behaviours[b] = true
		}
		for _, s := range st.FailureSigs {
			failSigs[s] = true
		}
	}
	sigs := make([]string, 0, len(bySig))
	for s := range bySig {
		sigs = append(sigs, s)
	}
	sort.Strings(sigs)
	for _, s := range sigs {
		out.Entries = append(out.Entries, bySig[s])
	}
	out.Behaviours = sortedSet(behaviours)
	out.FailureSigs = sortedSet(failSigs)
	return out, nil
}

// encodeLess orders values by their canonical JSON encoding — the total
// order every merge collision resolves through.
func encodeLess(a, b any) bool {
	return string(mustEncode(a)) < string(mustEncode(b))
}

func mustEncode(v any) []byte {
	data, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("campaign: unencodable merge element: %v", err))
	}
	return data
}

func sortedSet(m map[string]bool) []string {
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

// Input is one report file handed to MergeReports: exactly one of Sweep and
// Explore is set. Name labels error messages.
type Input struct {
	Name    string
	Sweep   *cliutil.SweepReport
	Explore *cliutil.ExploreReport
}

// ReadInput parses report bytes of either kind, rejecting future schema
// versions.
func ReadInput(name string, data []byte) (Input, error) {
	sw, ex, err := cliutil.ReadAnyReport(name, data)
	if err != nil {
		return Input{}, err
	}
	return Input{Name: name, Sweep: sw, Explore: ex}, nil
}

// SeedCorpus reads data as the seed corpus of a new exploration: the corpus
// state of an explore report (cmd/explore -out, or a campaign unit report)
// or of a merged campaign report (its explore.corpus) — the handoff from one
// campaign generation to the next. It refuses everything else and names
// what it saw: a sweep report or a merged sweep-only report (no corpus), a
// report whose corpus is empty, a bare corpus state (what explore
// -corpus-out once wrote), any other JSON, versions newer than this build
// and entries whose configs do not fit the report's n. It also returns the
// protocol and n the corpus was found with, so that the caller can refuse
// a corpus from another search space. name labels errors.
func SeedCorpus(name string, data []byte) (st *explore.CorpusState, proto string, n int, err error) {
	var sniff struct {
		SchemaVersion int             `json:"schema_version"`
		Inputs        *int            `json:"inputs"`
		Entries       json.RawMessage `json:"entries"`
	}
	if err = json.Unmarshal(data, &sniff); err != nil {
		return nil, "", 0, fmt.Errorf("%s: parse: %w", name, err)
	}
	if err = cliutil.CheckReportVersion(name, sniff.SchemaVersion); err != nil {
		return nil, "", 0, err
	}
	switch {
	case sniff.Inputs != nil:
		var m Merged
		if err = json.Unmarshal(data, &m); err != nil {
			return nil, "", 0, fmt.Errorf("%s: parse merged report: %w", name, err)
		}
		if m.Explore == nil {
			return nil, "", 0, fmt.Errorf("%s: is a merged report of sweeps only, which carries no corpus", name)
		}
		st, proto, n = m.Explore.Corpus, m.Explore.Proto, m.Explore.N
		if st != nil && st.SchemaVersion > explore.CorpusVersion {
			return nil, "", 0, fmt.Errorf("%s: corpus schema_version %d is newer than supported version %d", name, st.SchemaVersion, explore.CorpusVersion)
		}
	case sniff.Entries != nil:
		return nil, "", 0, fmt.Errorf("%s: is a bare corpus state (an old explore -corpus-out file), not a report; seed from the explore report of the same run", name)
	default:
		sw, ex, err := cliutil.ReadAnyReport(name, data)
		if err != nil {
			return nil, "", 0, err
		}
		if sw != nil {
			return nil, "", 0, fmt.Errorf("%s: is a sweep report, which carries no corpus", name)
		}
		st, proto, n = ex.CorpusState(), ex.Proto, ex.N
	}
	if st == nil || len(st.Entries) == 0 {
		return nil, "", 0, fmt.Errorf("%s: the report's corpus is empty; there is nothing to seed from", name)
	}
	// The runtime panics on an entry whose config is not a run of n
	// processes: another process count, a crash outside them, a drop rate
	// outside [0, 1].
	for i, e := range st.Entries {
		fits := n >= 1 && e.Config.N == n && e.Config.DropRate >= 0 && e.Config.DropRate <= 1
		for _, c := range e.Config.Crashes {
			fits = fits && c.P >= 0 && int(c.P) < n
		}
		if !fits {
			return nil, "", 0, fmt.Errorf("%s: corpus entry %d: config (n=%d, drop rate %v, crashes %v) is not a run of the report's n=%d processes", name, i, e.Config.N, e.Config.DropRate, e.Config.Crashes, n)
		}
	}
	return st, proto, n, nil
}

// DirInputs collects a complete campaign directory's unit reports as merge
// inputs, refusing unfinished shards and verifying every unit report against
// its shard-recorded digest.
func DirInputs(dir string) ([]Input, error) {
	m, err := LoadManifest(dir)
	if err != nil {
		return nil, err
	}
	states, err := ShardStates(dir, m)
	if err != nil {
		return nil, err
	}
	var inputs []Input
	for _, st := range states {
		if !st.Done() {
			return nil, fmt.Errorf("campaign %s: shard %d has %d of %d units done; run it to completion first",
				m.Name, st.Shard, st.Watermark, st.UnitHi-st.UnitLo)
		}
		for i := 0; i < st.Watermark; i++ {
			u := st.UnitLo + i
			path := UnitReportPath(dir, u)
			data, err := os.ReadFile(path)
			if err != nil {
				return nil, err
			}
			if got := Digest(data); got != st.Digests[i] {
				return nil, fmt.Errorf("campaign %s: unit %d report %s does not match its recorded digest (corrupted or hand-edited)", m.Name, u, path)
			}
			in, err := ReadInput(path, data)
			if err != nil {
				return nil, err
			}
			inputs = append(inputs, in)
		}
	}
	return inputs, nil
}

// MergeDir folds a complete campaign directory into one merged report.
func MergeDir(dir string) (*Merged, error) {
	inputs, err := DirInputs(dir)
	if err != nil {
		return nil, err
	}
	return MergeReports(inputs)
}

// Merged is the campaign report: any mix of sweep and explore reports
// folded into one artifact. GeneratedBy/GoVersion are provenance, excluded
// from Canonical.
type Merged struct {
	SchemaVersion int            `json:"schema_version"`
	GeneratedBy   string         `json:"generated_by,omitempty"`
	GoVersion     string         `json:"go_version,omitempty"`
	Campaign      string         `json:"campaign,omitempty"`
	Inputs        int            `json:"inputs"`
	Sweep         *MergedSweep   `json:"sweep,omitempty"`
	Explore       *MergedExplore `json:"explore,omitempty"`
}

// MergedSweep folds sweep reports over one grid: counts summed and
// re-asserted, covered index ranges coalesced, failures deduplicated by
// fingerprint.
type MergedSweep struct {
	GridFingerprint string `json:"grid_fingerprint"`
	Proto           string `json:"proto"`
	N               int    `json:"n"`
	GridSize        int    `json:"grid_size"`
	Reports         int    `json:"reports"`
	// Ranges are the covered [lo, hi) global index ranges, disjoint by
	// construction (overlap is refused), sorted and coalesced; Complete
	// reports whether they tile the whole grid.
	Ranges    [][2]int `json:"ranges"`
	Complete  bool     `json:"complete"`
	Runs      int      `json:"runs"`
	Passed    int      `json:"passed"`
	Faulted   int      `json:"faulted"`
	Cancelled int      `json:"cancelled"`
	// Detectors sums the per-class columns across reports, sorted by spec.
	Detectors []cliutil.DetectorReport `json:"detectors,omitempty"`
	// Probes merges the shards' probe aggregates — element-wise histogram
	// addition, commutative and associative, with double-count refusal
	// supplied by the range-disjointness check above, so the merged
	// aggregate is a pure function of the covered index set. Either every
	// input carries an aggregate or none does; a mix is refused.
	Probes *probe.Agg `json:"probes,omitempty"`
	// Failures are deduplicated by result fingerprint (the minimised
	// identity of the failing behaviour), keeping the lowest grid index per
	// fingerprint, sorted by index.
	Failures  []cliutil.FailureReport   `json:"failures,omitempty"`
	Minimized []cliutil.MinimizedReport `json:"minimized,omitempty"`
}

// MergedExplore folds explore reports over one search space: one report
// per seed (exact-once), counts summed, corpora merged by MergeCorpora,
// failures and reproducers deduplicated by fingerprint, frontier tables
// unioned by tightest bracket per axis.
type MergedExplore struct {
	SpaceFingerprint string  `json:"space_fingerprint"`
	Proto            string  `json:"proto"`
	N                int     `json:"n"`
	Reports          int     `json:"reports"`
	Seeds            []int64 `json:"seeds"`
	Budget           int     `json:"budget"`
	Runs             int     `json:"runs"`
	Novel            int     `json:"novel"`
	Duplicates       int     `json:"duplicates"`
	Cancelled        int     `json:"cancelled"`
	// Corpus is the merged corpus state: the next generation's seed
	// corpus, which explore -corpus-in reads from the merged report itself
	// (SeedCorpus).
	Corpus *explore.CorpusState `json:"corpus,omitempty"`
	// Failures are deduplicated by result fingerprint and sorted by
	// (fingerprint, signature); Minimized by minimised fingerprint.
	Failures  []explore.Failure          `json:"failures,omitempty"`
	Minimized []explore.MinimizedFailure `json:"minimized,omitempty"`
	// Frontier unions the inputs' boundary tables: per axis (spec, param,
	// max), the tightest bracket wins; sorted by (spec, param, max).
	Frontier     []explore.Boundary `json:"frontier,omitempty"`
	FrontierRuns int                `json:"frontier_runs,omitempty"`
}

// MergeReports folds any mix of sweep/explore reports into one campaign
// report. All sweep inputs must share one grid fingerprint and all explore
// inputs one space fingerprint (a report without a fingerprint, or from a
// different grid, is refused — silently folding incompatible reports is
// exactly the failure mode this layer exists to prevent). Count identities
// are re-asserted: per-report partitions must sum, covered sweep ranges
// must be disjoint, explore seeds must be unique. The fold is
// order-independent: any permutation of inputs yields byte-identical
// output.
func MergeReports(inputs []Input) (*Merged, error) {
	out := &Merged{SchemaVersion: cliutil.ReportSchemaVersion, Inputs: len(inputs)}
	var sweeps []*cliutil.SweepReport
	var explores []*cliutil.ExploreReport
	for _, in := range inputs {
		switch {
		case in.Sweep != nil:
			sweeps = append(sweeps, in.Sweep)
		case in.Explore != nil:
			explores = append(explores, in.Explore)
		default:
			return nil, fmt.Errorf("merge: input %s holds no report", in.Name)
		}
		if c := campaignOf(in); c != "" {
			if out.Campaign != "" && out.Campaign != c {
				return nil, fmt.Errorf("merge: inputs from different campaigns %q and %q", out.Campaign, c)
			}
			out.Campaign = c
		}
	}
	if len(sweeps) > 0 {
		ms, err := mergeSweeps(sweeps)
		if err != nil {
			return nil, err
		}
		out.Sweep = ms
	}
	if len(explores) > 0 {
		me, err := mergeExplores(explores)
		if err != nil {
			return nil, err
		}
		out.Explore = me
	}
	return out, nil
}

func campaignOf(in Input) string {
	if in.Sweep != nil {
		return in.Sweep.Campaign
	}
	return in.Explore.Campaign
}

// mergeSweeps folds sweep reports over one grid.
func mergeSweeps(reports []*cliutil.SweepReport) (*MergedSweep, error) {
	first := reports[0]
	if first.GridFingerprint == "" {
		return nil, fmt.Errorf("merge: sweep report has no grid fingerprint; re-generate it with a current build")
	}
	out := &MergedSweep{
		GridFingerprint: first.GridFingerprint,
		Proto:           first.Proto,
		N:               first.N,
		GridSize:        first.GridSize,
		Reports:         len(reports),
	}
	detectors := map[string]*cliutil.DetectorReport{}
	failures := map[string]cliutil.FailureReport{}
	minimized := map[string]cliutil.MinimizedReport{}
	var ranges [][2]int
	for _, r := range reports {
		if r.GridFingerprint != out.GridFingerprint {
			return nil, fmt.Errorf("merge: grid fingerprint mismatch:\n  %s\n  %s", out.GridFingerprint, r.GridFingerprint)
		}
		if r.Proto != out.Proto || r.N != out.N || r.GridSize != out.GridSize {
			return nil, fmt.Errorf("merge: sweep report disagrees on proto/n/grid_size despite equal fingerprints (%s/%d/%d vs %s/%d/%d)",
				r.Proto, r.N, r.GridSize, out.Proto, out.N, out.GridSize)
		}
		if r.Runs != r.IndexHi-r.IndexLo || r.Passed+r.Faulted+r.Cancelled != r.Runs {
			return nil, fmt.Errorf("merge: sweep report counts do not sum: runs=%d over [%d,%d) with %d+%d+%d", r.Runs, r.IndexLo, r.IndexHi, r.Passed, r.Faulted, r.Cancelled)
		}
		ranges = append(ranges, [2]int{r.IndexLo, r.IndexHi})
		out.Runs += r.Runs
		out.Passed += r.Passed
		out.Faulted += r.Faulted
		out.Cancelled += r.Cancelled
		if (r.Probes != nil) != (first.Probes != nil) {
			return nil, fmt.Errorf("merge: some sweep reports carry probe aggregates and some do not; re-run the shards with a uniform probes setting")
		}
		if r.Probes != nil {
			if out.Probes == nil {
				out.Probes = &probe.Agg{SchemaVersion: r.Probes.SchemaVersion}
			}
			if err := out.Probes.Merge(r.Probes); err != nil {
				return nil, fmt.Errorf("merge: %v", err)
			}
		}
		for _, d := range r.Detectors {
			agg, ok := detectors[d.Spec]
			if !ok {
				agg = &cliutil.DetectorReport{Spec: d.Spec}
				detectors[d.Spec] = agg
			}
			agg.Runs += d.Runs
			agg.Passed += d.Passed
			agg.Faulted += d.Faulted
			agg.Cancelled += d.Cancelled
			if d.Probes != nil {
				if agg.Probes == nil {
					agg.Probes = &probe.Agg{SchemaVersion: d.Probes.SchemaVersion}
				}
				if err := agg.Probes.Merge(d.Probes); err != nil {
					return nil, fmt.Errorf("merge: detector %s: %v", d.Spec, err)
				}
			}
		}
		for _, f := range r.Failures {
			old, seen := failures[f.Fingerprint]
			if !seen || f.Index < old.Index || (f.Index == old.Index && encodeLess(f, old)) {
				failures[f.Fingerprint] = f
			}
		}
		if m := r.Minimized; m != nil {
			old, seen := minimized[m.Fingerprint]
			if !seen || m.FromIndex < old.FromIndex || (m.FromIndex == old.FromIndex && encodeLess(*m, old)) {
				minimized[m.Fingerprint] = *m
			}
		}
	}
	var err error
	if out.Ranges, err = coalesce(ranges); err != nil {
		return nil, err
	}
	out.Complete = len(out.Ranges) == 1 && out.Ranges[0] == [2]int{0, out.GridSize}
	for _, spec := range sortedDetectorSpecs(detectors) {
		out.Detectors = append(out.Detectors, *detectors[spec])
	}
	if len(out.Detectors) > 0 {
		sum := 0
		for _, d := range out.Detectors {
			sum += d.Runs
		}
		if sum != out.Runs {
			return nil, fmt.Errorf("merge: per-detector runs sum to %d, merged runs are %d", sum, out.Runs)
		}
	}
	for _, f := range sortedFailures(failures) {
		out.Failures = append(out.Failures, f)
	}
	for _, m := range sortedMinimized(minimized) {
		out.Minimized = append(out.Minimized, m)
	}
	return out, nil
}

// coalesce sorts [lo,hi) ranges, refuses overlap, and joins adjacency.
func coalesce(ranges [][2]int) ([][2]int, error) {
	sort.Slice(ranges, func(i, j int) bool { return ranges[i][0] < ranges[j][0] })
	var out [][2]int
	for _, r := range ranges {
		if n := len(out); n > 0 {
			prev := &out[n-1]
			if r[0] < prev[1] {
				return nil, fmt.Errorf("merge: index ranges overlap: [%d,%d) and [%d,%d) — the same grid points were counted twice", prev[0], prev[1], r[0], r[1])
			}
			if r[0] == prev[1] {
				prev[1] = r[1]
				continue
			}
		}
		out = append(out, r)
	}
	return out, nil
}

func sortedDetectorSpecs(m map[string]*cliutil.DetectorReport) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func sortedFailures(m map[string]cliutil.FailureReport) []cliutil.FailureReport {
	out := make([]cliutil.FailureReport, 0, len(m))
	for _, f := range m {
		out = append(out, f)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Index != out[j].Index {
			return out[i].Index < out[j].Index
		}
		return out[i].Fingerprint < out[j].Fingerprint
	})
	return out
}

func sortedMinimized(m map[string]cliutil.MinimizedReport) []cliutil.MinimizedReport {
	out := make([]cliutil.MinimizedReport, 0, len(m))
	for _, f := range m {
		out = append(out, f)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].FromIndex != out[j].FromIndex {
			return out[i].FromIndex < out[j].FromIndex
		}
		return out[i].Fingerprint < out[j].Fingerprint
	})
	return out
}

// mergeExplores folds explore reports over one search space.
func mergeExplores(reports []*cliutil.ExploreReport) (*MergedExplore, error) {
	first := reports[0]
	if first.SpaceFingerprint == "" {
		return nil, fmt.Errorf("merge: explore report has no space fingerprint; re-generate it with a current build")
	}
	out := &MergedExplore{
		SpaceFingerprint: first.SpaceFingerprint,
		Proto:            first.Proto,
		N:                first.N,
		Reports:          len(reports),
	}
	seeds := map[int64]bool{}
	failures := map[string]explore.Failure{}
	minimized := map[string]explore.MinimizedFailure{}
	frontier := map[string]explore.Boundary{}
	var corpora []*explore.CorpusState
	for _, r := range reports {
		if r.SpaceFingerprint != out.SpaceFingerprint {
			return nil, fmt.Errorf("merge: space fingerprint mismatch:\n  %s\n  %s", out.SpaceFingerprint, r.SpaceFingerprint)
		}
		if r.Proto != out.Proto || r.N != out.N {
			return nil, fmt.Errorf("merge: explore report disagrees on proto/n despite equal fingerprints")
		}
		if seeds[r.Seed] {
			return nil, fmt.Errorf("merge: two explore reports carry seed %d — the same exploration was counted twice", r.Seed)
		}
		seeds[r.Seed] = true
		if r.Novel != len(r.Corpus) {
			return nil, fmt.Errorf("merge: explore report seed %d: novel=%d but corpus holds %d entries", r.Seed, r.Novel, len(r.Corpus))
		}
		out.Budget += r.Budget
		out.Runs += r.Runs
		out.Novel += r.Novel
		out.Duplicates += r.Duplicates
		out.Cancelled += r.Cancelled
		out.FrontierRuns += r.FrontierRuns
		corpora = append(corpora, r.CorpusState())
		for _, f := range r.Failures {
			old, seen := failures[f.Fingerprint]
			if !seen || encodeLess(f, old) {
				failures[f.Fingerprint] = f
			}
		}
		for _, mf := range r.Minimized {
			old, seen := minimized[mf.Fingerprint]
			if !seen || encodeLess(mf, old) {
				minimized[mf.Fingerprint] = mf
			}
		}
		for _, b := range r.Frontier {
			key := fmt.Sprintf("%s\x00%s\x00%d", b.Spec, b.Param, b.Max)
			old, seen := frontier[key]
			if !seen || b.Tighter(old) || (!old.Tighter(b) && encodeLess(b, old)) {
				frontier[key] = b
			}
		}
	}
	for s := range seeds {
		out.Seeds = append(out.Seeds, s)
	}
	sort.Slice(out.Seeds, func(i, j int) bool { return out.Seeds[i] < out.Seeds[j] })
	var err error
	if out.Corpus, err = MergeCorpora(corpora...); err != nil {
		return nil, err
	}
	for _, f := range sortedByFingerprint(failures) {
		out.Failures = append(out.Failures, f)
	}
	mins := make([]string, 0, len(minimized))
	for k := range minimized {
		mins = append(mins, k)
	}
	sort.Strings(mins)
	for _, k := range mins {
		out.Minimized = append(out.Minimized, minimized[k])
	}
	axes := make([]string, 0, len(frontier))
	for k := range frontier {
		axes = append(axes, k)
	}
	sort.Strings(axes)
	for _, k := range axes {
		out.Frontier = append(out.Frontier, frontier[k])
	}
	return out, nil
}

func sortedByFingerprint(m map[string]explore.Failure) []explore.Failure {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]explore.Failure, 0, len(keys))
	for _, k := range keys {
		out = append(out, m[k])
	}
	return out
}

// Marshal renders the merged report as indented JSON.
func (m *Merged) Marshal() ([]byte, error) { return marshalJSON(m) }

// Canonical renders the merged report's deterministic content byte-stably:
// everything except the provenance header. Equal campaigns — same
// fingerprint, same seed/index coverage — render identically regardless of
// shard count, merge order, kills and resumes; the campaign smoke compares
// these bytes across shard layouts.
func (m *Merged) Canonical() string {
	var b strings.Builder
	fmt.Fprintf(&b, "campaign merge schema=%d campaign=%s inputs=%d\n", m.SchemaVersion, m.Campaign, m.Inputs)
	if s := m.Sweep; s != nil {
		fmt.Fprintf(&b, "sweep fingerprint=%s\n", s.GridFingerprint)
		fmt.Fprintf(&b, "  proto=%s n=%d grid_size=%d reports=%d complete=%t ranges=%v\n",
			s.Proto, s.N, s.GridSize, s.Reports, s.Complete, s.Ranges)
		fmt.Fprintf(&b, "  runs=%d passed=%d faulted=%d cancelled=%d\n", s.Runs, s.Passed, s.Faulted, s.Cancelled)
		if p := s.Probes; p != nil {
			fmt.Fprintf(&b, "  probes runs=%d messages[%s] decision_latency[%s] detection_latency[%s] crashes=%d detected=%d missed=%d\n",
				p.Runs, probe.Summary(&p.Messages), probe.Summary(&p.DecisionLatency), probe.Summary(&p.DetectionLatency),
				p.CrashesSeen, p.Detected, p.Missed)
		}
		for _, d := range s.Detectors {
			fmt.Fprintf(&b, "  detector %s: runs=%d passed=%d faulted=%d cancelled=%d\n", d.Spec, d.Runs, d.Passed, d.Faulted, d.Cancelled)
			if p := d.Probes; p != nil {
				fmt.Fprintf(&b, "    probes messages[%s] detection_latency[%s] detected=%d/%d\n",
					probe.Summary(&p.Messages), probe.Summary(&p.DetectionLatency), p.Detected, p.CrashesSeen)
			}
		}
		for _, f := range s.Failures {
			fmt.Fprintf(&b, "  failure index=%d violations=%v\n", f.Index, f.Violations)
			writeIndented(&b, f.Fingerprint)
		}
		for _, mf := range s.Minimized {
			fmt.Fprintf(&b, "  minimized from_index=%d candidates=%d violations=%v\n", mf.FromIndex, mf.Candidates, mf.Violations)
			writeIndented(&b, mf.Fingerprint)
		}
	}
	if e := m.Explore; e != nil {
		fmt.Fprintf(&b, "explore fingerprint=%s\n", e.SpaceFingerprint)
		fmt.Fprintf(&b, "  proto=%s n=%d reports=%d seeds=%v\n", e.Proto, e.N, e.Reports, e.Seeds)
		fmt.Fprintf(&b, "  budget=%d runs=%d novel=%d dup=%d cancelled=%d\n", e.Budget, e.Runs, e.Novel, e.Duplicates, e.Cancelled)
		if c := e.Corpus; c != nil {
			fmt.Fprintf(&b, "  corpus entries=%d behaviours=%d failure_sigs=%d\n", len(c.Entries), len(c.Behaviours), len(c.FailureSigs))
			for _, entry := range c.Entries {
				fmt.Fprintf(&b, "    failing=%t energy=%g sig=%s\n", entry.Failing, entry.Energy, entry.Signature)
			}
		}
		for _, f := range e.Failures {
			fmt.Fprintf(&b, "  failure sig=%s violations=%v\n", f.Signature, f.Violations)
			writeIndented(&b, f.Fingerprint)
		}
		for _, mf := range e.Minimized {
			fmt.Fprintf(&b, "  minimized from_sig=%s candidates=%d violations=%v\n", mf.FromSignature, mf.Candidates, mf.Violations)
			writeIndented(&b, mf.Fingerprint)
		}
		for _, bd := range e.Frontier {
			fmt.Fprintf(&b, "  frontier %s:%s max=%d inverted=%t unsolvable=%t censored=%t bracket=(%d,%d]/[%d,%d)\n",
				bd.Spec, bd.Param, bd.Max, bd.Inverted, bd.Unsolvable, bd.Censored, bd.MaxPassing, bd.MinFailing, bd.MaxFailing, bd.MinPassing)
		}
		if e.FrontierRuns > 0 {
			fmt.Fprintf(&b, "  frontier_runs=%d\n", e.FrontierRuns)
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
