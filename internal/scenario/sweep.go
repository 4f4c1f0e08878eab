package scenario

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"time"

	"weakestfd/internal/fd"
	"weakestfd/internal/probe"
)

// DelayRange is one delay distribution of a sweep grid.
type DelayRange struct {
	Min, Max time.Duration
}

// Shard restricts a sweep to one contiguous slice of the grid's row-major
// index space, so independent invocations (other processes, other machines)
// cover disjoint runs whose union is the whole grid. Shard k of m covers
// global indices [(k-1)·size/m, k·size/m) — every index exactly once across
// k = 1..m. The zero value means "the whole grid".
type Shard struct {
	// Index is the 1-based shard number, in [1, Count].
	Index int
	// Count is the total number of shards.
	Count int
}

// enabled reports whether the shard actually restricts the grid.
func (s Shard) enabled() bool { return s.Count > 1 }

// Bounds returns the half-open global index range [lo, hi) the shard covers
// over a grid of the given size — the single definition of the tiling, which
// Sweep and external drivers (cmd/sweep progress totals) must share.
func (s Shard) Bounds(size int) (lo, hi int) {
	if !s.enabled() {
		return 0, size
	}
	if s.Index < 1 || s.Index > s.Count {
		panic(fmt.Sprintf("scenario: shard index %d out of range 1..%d", s.Index, s.Count))
	}
	return (s.Index - 1) * size / s.Count, s.Index * size / s.Count
}

// SeedSpan contributes the N consecutive seeds From, From+1, …, From+N−1 to
// a grid's seed axis without materialising them — the grid stays O(1) in
// memory no matter how many million seeds the span covers, matching the
// lazy ConfigAt expansion. The zero value contributes nothing.
type SeedSpan struct {
	From int64
	N    int
}

// Grid spans the scenario family a Sweep explores: the cross product of
// seeds × detector specs × delay ranges × crash schedules, each dimension
// falling back to the base scenario's value when left empty. A 16-seed ×
// 4-detector × 4-delay × 2-schedule grid is 512 runs; the expansion is
// deterministic (row-major: seeds outermost, then detectors, then delays,
// crash schedules innermost), so run #k always denotes the same
// configuration — which is what makes sharding across processes and
// re-running a failure by index meaningful.
type Grid struct {
	// Seeds to run. The seed axis is Seeds followed by SeedSpan; when both
	// are empty it falls back to the base scenario's seed.
	Seeds []int64
	// SeedSpan appends a contiguous, unmaterialised seed range after Seeds
	// (the million-seed axis of sharded sweeps).
	SeedSpan SeedSpan
	// Detectors holds the detector-spec axis: each grid point runs under
	// one of these specs. Empty = the base scenario's spec. This is the
	// axis that asks the paper's own question — which detector class (at
	// which quality) solves the problem — so Sweep additionally aggregates
	// per-spec counts into SweepResult.Detectors when it is non-empty.
	Detectors []fd.DetectorSpec
	// Delays to run. Empty = the base scenario's delay range.
	Delays []DelayRange
	// Crashes holds alternative fault schedules. Empty = the base
	// scenario's schedule. Use [][]Crash{nil} next to real schedules to
	// include a crash-free point.
	Crashes [][]Crash
	// Shard restricts the sweep to one contiguous slice of the row-major
	// index space (see Shard). The zero value sweeps the whole grid.
	Shard Shard
	// Workers is the number of concurrent runner goroutines; 0 means
	// GOMAXPROCS.
	Workers int
	// KeepFailures caps how many failing Results are retained in full
	// (earliest grid points first). 0 (or negative) retains none: the
	// count-only mode a million-run sweep needs, where holding even a
	// handful of full Results per shard is pure overhead. Pass/fail counts
	// always cover every run.
	KeepFailures int
	// OnRun, if non-nil, streams every executed run's result as it
	// completes: index is the run's global row-major grid index. It is
	// called concurrently from worker goroutines and must be safe for
	// that; runs abandoned because the sweep's context was cancelled are
	// not reported.
	OnRun func(index int, res *Result)
	// Probes enables the streaming probe analyzer (Config.Probes) on every
	// grid point and folds each run's fold into SweepResult.Probes and the
	// per-detector aggregates. Observe-only and trace-tier, like the config
	// flag it sets: it never changes a run's schedule or identity, so —
	// like Shard and Workers — it is excluded from Fingerprint.
	Probes bool
}

// seedCount is the length of the seed axis (0 = fall back to the base seed).
func (g Grid) seedCount() int { return len(g.Seeds) + max(0, g.SeedSpan.N) }

// Size returns the number of runs the grid expands to over a base scenario,
// before sharding.
func (g Grid) Size() int {
	return max(1, g.seedCount()) * max(1, len(g.Detectors)) * max(1, len(g.Delays)) * max(1, len(g.Crashes))
}

// Fingerprint returns the canonical identity of the sweep this grid
// describes over the base config: the base's canonical key plus every axis
// in expansion order, byte-stably. Two (base, grid) pairs with equal
// fingerprints expand to the same configurations at the same row-major
// indices — the identity a campaign manifest records and campaign merge
// enforces before folding shard reports together. Shard, Workers,
// KeepFailures and OnRun are execution detail, not identity, and are
// excluded: sharding or re-running a grid never changes its fingerprint.
func (g Grid) Fingerprint(base Config) string {
	var b strings.Builder
	b.WriteString("grid{base=")
	b.WriteString(base.Key())
	b.WriteString(";seeds=")
	for i, s := range g.Seeds {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%d", s)
	}
	if g.SeedSpan.N > 0 {
		fmt.Fprintf(&b, ";seedspan=%d+%d", g.SeedSpan.From, g.SeedSpan.N)
	}
	b.WriteString(";detectors=")
	for i, d := range g.Detectors {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(d.String())
	}
	b.WriteString(";delays=")
	for i, d := range g.Delays {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "[%v,%v]", d.Min, d.Max)
	}
	b.WriteString(";crashes=")
	for i, cs := range g.Crashes {
		if i > 0 {
			b.WriteByte('|')
		}
		fmt.Fprintf(&b, "%v", cs)
	}
	b.WriteByte('}')
	return b.String()
}

// detectorIndexAt returns the position on the detector axis of global grid
// index i; ok is false when the grid has no detector axis.
func (g Grid) detectorIndexAt(i int) (int, bool) {
	if len(g.Detectors) == 0 {
		return 0, false
	}
	nc := max(1, len(g.Crashes))
	nd := max(1, len(g.Delays))
	return (i / (nc * nd)) % len(g.Detectors), true
}

// ConfigAt returns the configuration of global grid index i (row-major:
// seeds outermost, then detector specs, then delays, crash schedules
// innermost) over the base config. It is how Sweep materialises runs —
// lazily, one index at a time, so a million-point grid never exists in
// memory — and how external tooling (cmd/sweep, failure reports) maps an
// index back to its exact scenario.
func (g Grid) ConfigAt(base Config, i int) Config {
	if i < 0 || i >= g.Size() {
		panic(fmt.Sprintf("scenario: grid index %d out of range 0..%d", i, g.Size()-1))
	}
	nc := max(1, len(g.Crashes))
	nd := max(1, len(g.Delays))
	ndet := max(1, len(g.Detectors))
	cfg := base
	if ci := i % nc; len(g.Crashes) > 0 {
		cfg.Crashes = append([]Crash(nil), g.Crashes[ci]...)
	} else {
		cfg.Crashes = append([]Crash(nil), base.Crashes...)
	}
	if di := (i / nc) % nd; len(g.Delays) > 0 {
		cfg.MinDelay, cfg.MaxDelay = g.Delays[di].Min, g.Delays[di].Max
	}
	if deti, ok := g.detectorIndexAt(i); ok {
		cfg.Detector = g.Detectors[deti]
	}
	if si := i / (nc * nd * ndet); g.seedCount() > 0 {
		if si < len(g.Seeds) {
			cfg.Seed = g.Seeds[si]
		} else {
			cfg.Seed = g.SeedSpan.From + int64(si-len(g.Seeds))
		}
	}
	return cfg
}

// SweepResult aggregates a sweep: total and passing run counts, the first
// few failing results in grid order, and throughput.
type SweepResult struct {
	// GridSize is the full grid's run count; Runs is this sweep's share of
	// it ([IndexLo, IndexHi) after sharding — the whole grid when the
	// shard is zero).
	GridSize int
	// IndexLo and IndexHi bound the half-open global index range this
	// sweep covered.
	IndexLo, IndexHi int
	Runs             int
	Passed           int
	Faulted          int // runs that executed and whose verdict failed
	// Cancelled counts grid points whose run never executed, or was cut
	// short by the sweep context's cancellation; they are neither passes
	// nor spec failures.
	Cancelled int
	// Failures holds the first KeepFailures failing results in grid order,
	// each carrying the exact Config to re-run it in isolation.
	Failures []Result
	// FailureIndices holds the global grid index of each retained failure,
	// aligned with Failures.
	FailureIndices []int
	// Detectors aggregates this sweep's runs per detector spec, aligned
	// with the grid's Detectors axis; nil when the grid has no detector
	// axis. This is the sweep's cross-detector comparison table: which
	// class (at which quality) solved the problem on how many points.
	Detectors []DetectorCount
	// Probes aggregates every executed run's probe fold (Grid.Probes):
	// mergeable histograms of per-run message cost, decision latency and
	// failure-detection latency. Folded in grid order after the workers
	// join, so it is byte-stable whenever the runs are; nil when Grid.Probes
	// was off. Shard aggregates merge commutatively (element-wise histogram
	// addition), which is how campaign merge folds them.
	Probes  *probe.Agg
	Elapsed time.Duration
	// RunsPerSec is the sweep's wall-clock throughput over executed runs.
	RunsPerSec float64
}

// DetectorCount is one detector spec's share of a sweep: how many of its
// grid points ran, passed, violated the spec, or were cancelled.
type DetectorCount struct {
	// Spec is the canonical rendering of the detector spec (its fingerprint).
	Spec string `json:"spec"`
	// Runs is the number of this sweep's grid points under the spec.
	Runs int `json:"runs"`
	// Passed, Faulted and Cancelled partition Runs exactly like the
	// sweep-wide counts.
	Passed    int `json:"passed"`
	Faulted   int `json:"faulted"`
	Cancelled int `json:"cancelled"`
	// Probes aggregates the spec's runs' probe folds (Grid.Probes) — the
	// per-class detection-latency and message-cost comparison the sweep
	// report surfaces; nil when probes were off.
	Probes *probe.Agg `json:"probes,omitempty"`
}

// AllPassed reports whether every grid point executed and passed.
func (r SweepResult) AllPassed() bool { return r.Passed == r.Runs }

// Sweep expands the grid over the base scenario and runs every configuration
// of its shard against proto, fanning runs across worker goroutines — the
// "millions of runs" driver the virtual-time scheduler makes cheap. When the
// grid carries a detector axis the result additionally reports per-spec
// pass/fail counts, one invocation answering the paper's comparison question
// across detector classes.
// proto.Setup is called once per run and must therefore be reusable (the
// built-in protocol descriptors are). The aggregation is deterministic: runs
// are indexed by grid order, so identical inputs yield an identical
// SweepResult whenever each individual run is deterministic.
//
// Cancelling ctx stops the sweep early: the grid points RunEach does not
// count are Cancelled and never retained in Failures.
func Sweep(ctx context.Context, base *Scenario, grid Grid, proto Protocol) SweepResult {
	baseCfg := base.Config()
	size := grid.Size()
	lo, hi := grid.Shard.Bounds(size)

	start := time.Now()
	passed := make([]bool, hi-lo)
	faulted := make([]bool, hi-lo)
	failed := make([]*Result, hi-lo)
	var probed []*probe.Probes
	if grid.Probes {
		probed = make([]*probe.Probes, hi-lo)
	}
	config := func(i int) Config {
		cfg := grid.ConfigAt(baseCfg, i)
		cfg.Probes = cfg.Probes || grid.Probes
		return cfg
	}
	RunEach(ctx, lo, hi, grid.Workers, proto, config, func(i int, res *Result) {
		if res.Verdict.OK {
			passed[i-lo] = true
		} else {
			faulted[i-lo] = true
			failed[i-lo] = res
		}
		if probed != nil {
			probed[i-lo] = res.Probes
		}
		if grid.OnRun != nil {
			grid.OnRun(i, res)
		}
	})

	out := SweepResult{GridSize: size, IndexLo: lo, IndexHi: hi, Runs: hi - lo, Elapsed: time.Since(start)}
	if len(grid.Detectors) > 0 {
		out.Detectors = make([]DetectorCount, len(grid.Detectors))
		for d, spec := range grid.Detectors {
			out.Detectors[d].Spec = spec.String()
		}
	}
	if grid.Probes {
		out.Probes = probe.NewAgg()
		for d := range out.Detectors {
			out.Detectors[d].Probes = probe.NewAgg()
		}
	}
	var scrap DetectorCount // increment sink when the grid has no detector axis
	for j := range passed {
		det := &scrap
		if d, ok := grid.detectorIndexAt(lo + j); ok {
			det = &out.Detectors[d]
			det.Runs++
		}
		if probed != nil && probed[j] != nil {
			// Fold in grid order, single goroutine: the aggregate is
			// byte-stable whenever the runs are. (A tainted or cancelled
			// run contributes nothing — its fold was never published.)
			out.Probes.Add(probed[j])
			if det.Probes != nil {
				det.Probes.Add(probed[j])
			}
		}
		switch {
		case passed[j]:
			out.Passed++
			det.Passed++
		case faulted[j]:
			out.Faulted++
			det.Faulted++
			if failed[j] != nil && len(out.Failures) < grid.KeepFailures {
				out.Failures = append(out.Failures, *failed[j])
				out.FailureIndices = append(out.FailureIndices, lo+j)
			}
		default:
			out.Cancelled++
			det.Cancelled++
		}
	}
	if executed := out.Runs - out.Cancelled; executed > 0 && out.Elapsed > 0 {
		out.RunsPerSec = float64(executed) / out.Elapsed.Seconds()
	}
	return out
}

// RunEach runs config(i) against proto for every index i in [lo, hi),
// across workers goroutines (0 means GOMAXPROCS, and never more than there
// are indices), handing out indices in order over an unbuffered channel. It
// calls each, concurrently from the workers, for the runs that count and
// only those: an index handed out after ctx is done never starts, and a run
// that fails while ctx is done is the cancellation echoing through the run's
// wall-clock backstop (timeout → no termination), not a spec violation.
// Both count as cancelled, which the caller reads as each never called for
// the index. The rule is deliberately conservative: a genuine violation
// that completes inside the cancellation window is cancelled too (telling
// it from the echo would take a re-check); a schedule-determined failure is
// recovered by re-running its config. RunEach returns once every started
// run has finished.
func RunEach(ctx context.Context, lo, hi, workers int, proto Protocol, config func(i int) Config, each func(i int, res *Result)) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > hi-lo {
		workers = hi - lo
	}
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				if ctx.Err() != nil {
					continue // handed out but never started
				}
				res := FromConfig(config(i)).Run(ctx, proto)
				if !res.Verdict.OK && ctx.Err() != nil {
					continue
				}
				each(i, &res)
			}
		}()
	}
submit:
	for i := lo; i < hi; i++ {
		select {
		case jobs <- i:
		case <-ctx.Done():
			break submit // stop submitting; the rest is never run
		}
	}
	close(jobs)
	wg.Wait()
}

// expand materialises the whole grid's cross product over the base config in
// row-major order. Sweep itself expands lazily via ConfigAt; expand is the
// eager form for tests and small tooling.
func expand(base Config, grid Grid) []Config {
	cfgs := make([]Config, grid.Size())
	for i := range cfgs {
		cfgs[i] = grid.ConfigAt(base, i)
	}
	return cfgs
}
