package scenario

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"weakestfd/internal/consensus"
	"weakestfd/internal/fd"
	"weakestfd/internal/model"
	"weakestfd/internal/nbac"
)

// determinismFamily lists scenario × protocol points whose complete outcome
// (every process's returned value or error, plus the verdict) is a pure
// function of the configuration. Two constructions make that true even with
// crashes in the schedule:
//
//   - crashes only at virtual time 0, which the dispatcher executes before
//     any delivery, so the crashed process deterministically errors; and
//   - either a single stable leader (whose proposal deterministically wins)
//     or identical inputs at every process (so any winner yields the same
//     value).
//
// Result.Fingerprint is outcome-level and excludes timestamps; everything it
// does include must be byte-identical across repeated runs of these points.
func determinismFamily() []struct {
	name  string
	s     *Scenario
	proto Protocol
} {
	return []struct {
		name  string
		s     *Scenario
		proto Protocol
	}{
		{"consensus/no-crash", New(5, WithSeed(11)), Consensus{}},
		{"consensus/slow-links", New(5, WithSeed(12), WithDelays(time.Millisecond, 20*time.Millisecond)), Consensus{}},
		{"consensus/leader-crash-same-value", New(5, WithSeed(13), WithCrash(0, 0)),
			Consensus{Proposals: []any{42, 42, 42, 42, 42}}},
		{"consensus/follower-crash", New(5, WithSeed(14), WithCrash(4, 0)), Consensus{}},
		{"qc/no-crash", New(4, WithSeed(15)), QC{}},
		{"nbac/all-yes", New(4, WithSeed(16)), NBAC{}},
		{"nbac/one-no", New(4, WithSeed(17)),
			NBAC{Votes: []nbac.Vote{nbac.VoteYes, nbac.VoteNo, nbac.VoteYes, nbac.VoteYes}}},
		{"registers/same-value", New(3, WithSeed(18)), Registers{Values: []int{7, 7, 7}}},
		// Multi-instance consensus: a stable leader decides every round, so
		// each round's winner is schedule-determined; RoundDecision renders
		// without its logical timestamp precisely so this entry holds.
		{"multiconsensus/no-crash", New(4, WithSeed(19)), MultiConsensus{Rounds: 3}},
		// The detector-spec axis: class P behaves like the exact oracle
		// family crash-free (stable leader p0), and the ◇ classes are made
		// schedule-determined by identical proposals — their chaotic prefix
		// elects whoever, but every winner carries the same value.
		{"consensus/perfect-class", New(5, WithSeed(20),
			WithDetector(fd.MustParseSpec("perfect{suspect:3}"))), Consensus{}},
		{"consensus/diamond-p-same-value", New(5, WithSeed(21),
			WithDetector(fd.MustParseSpec("eventually-perfect{stabilize:40}"))),
			Consensus{Proposals: []any{9, 9, 9, 9, 9}}},
		{"consensus/diamond-s-same-value", New(5, WithSeed(22),
			WithDetector(fd.MustParseSpec("eventually-strong{stabilize:40}"))),
			Consensus{Proposals: []any{9, 9, 9, 9, 9}}},
	}
}

// TestSweepDeterministic is the sweep-determinism guarantee: an identical
// scenario seed produces a byte-identical outcome fingerprint across
// repeated runs (exercised under -race by CI, where the extra scheduling
// noise makes any hidden order dependence surface).
func TestSweepDeterministic(t *testing.T) {
	ctx := context.Background()
	rounds := 4
	if raceEnabled {
		rounds = 2
	}
	for _, tc := range determinismFamily() {
		want := tc.s.Run(ctx, tc.proto)
		if !want.Verdict.OK {
			t.Fatalf("%s: verdict %v", tc.name, want.Verdict)
		}
		wantFP := want.Fingerprint()
		for round := 1; round < rounds; round++ {
			got := tc.s.Run(ctx, tc.proto).Fingerprint()
			if got != wantFP {
				t.Fatalf("%s: fingerprint diverged on round %d\n--- first run ---\n%s\n--- round %d ---\n%s",
					tc.name, round, wantFP, round, got)
			}
		}
	}
}

// TestSweepResultDeterministic runs the same grid through Sweep twice (with
// parallel workers) and requires identical aggregates: worker scheduling
// must not leak into the result.
func TestSweepResultDeterministic(t *testing.T) {
	base := New(5, WithSeed(1))
	grid := Grid{
		Seeds:   []int64{21, 22, 23, 24, 25, 26},
		Delays:  []DelayRange{{0, 200 * time.Microsecond}, {time.Millisecond, 5 * time.Millisecond}},
		Crashes: [][]Crash{nil, {{P: 4, At: 0}}},
		Workers: 4,
	}
	a := Sweep(context.Background(), base, grid, Consensus{})
	b := Sweep(context.Background(), base, grid, Consensus{})
	if a.Runs != b.Runs || a.Passed != b.Passed || a.Faulted != b.Faulted {
		t.Fatalf("sweep aggregates diverged: %+v vs %+v", a, b)
	}
	if !a.AllPassed() {
		t.Fatalf("sweep failed: %d of %d, first: %v", a.Faulted, a.Runs, firstViolation(a))
	}
}

// TestSweepTenThousand is the acceptance bar of the scenario harness: a
// 10k-run sweep at n=5 with mid-run crashes and 1–50ms injected delays
// completes in under ~10s of wall clock with every verdict passing — the
// delays alone would cost days if anything waited them out. Under -race the
// grid shrinks 10× (the bar is calibrated for the plain build).
func TestSweepTenThousand(t *testing.T) {
	if testing.Short() {
		t.Skip("10k-run sweep skipped in -short mode")
	}
	seeds := make([]int64, 625)
	if raceEnabled {
		seeds = seeds[:63]
	}
	for i := range seeds {
		seeds[i] = int64(i + 1)
	}
	grid := Grid{
		Seeds: seeds,
		Delays: []DelayRange{
			{time.Millisecond, 10 * time.Millisecond},
			{5 * time.Millisecond, 20 * time.Millisecond},
			{10 * time.Millisecond, 50 * time.Millisecond},
			{time.Millisecond, 50 * time.Millisecond},
		},
		Crashes: [][]Crash{
			nil,
			{{P: 4, At: 5 * time.Millisecond}},
			{{P: 1, At: 2 * time.Millisecond}, {P: 3, At: 10 * time.Millisecond}},
			{{P: 0, At: 8 * time.Millisecond}}, // the initial leader, mid-ballot
		},
	}
	base := New(5)
	// Poll/backoff are virtual-time knobs: scale them with the injected
	// delays so waiting is event-driven rather than tick-churn.
	proto := Consensus{Options: []consensus.Option{
		consensus.WithPollInterval(10 * time.Millisecond),
		consensus.WithBackoff(20 * time.Millisecond),
	}}
	res := Sweep(context.Background(), base, grid, proto)
	if !res.AllPassed() {
		t.Fatalf("%d of %d runs failed; first: %v", res.Faulted, res.Runs, firstViolation(res))
	}
	t.Logf("%d runs in %v (%.0f runs/s)", res.Runs, res.Elapsed.Round(time.Millisecond), res.RunsPerSec)
	if !raceEnabled && res.Elapsed > 12*time.Second {
		t.Errorf("sweep took %v, want under ~10s", res.Elapsed)
	}
}

// runnerFunc adapts a function to the Runner interface, for test protocols.
type runnerFunc func(ctx context.Context, input any) (any, error)

func (f runnerFunc) Run(ctx context.Context, input any) (any, error) { return f(ctx, input) }

// cancelProbeProto is a single-process test protocol for the sweep's
// cancellation semantics: runs whose seed is <= failFastBelow fail
// immediately (a genuine spec violation), every other run blocks until the
// sweep's context is cancelled (a ctx-induced non-failure).
type cancelProbeProto struct {
	failFastBelow int64
	started       chan struct{} // one tick per run that begins executing
}

func (p cancelProbeProto) Name() string { return "test/cancel-probe" }

func (p cancelProbeProto) Setup(cl *Cluster) (*Instance, error) {
	seed := cl.Config.Seed
	inst := &Instance{
		Runners: make([]Runner, cl.Config.N),
		Inputs:  make([]any, cl.Config.N),
		Check: func(f *model.FailurePattern, outs []Outcome, requireTermination bool) model.Verdict {
			for _, o := range outs {
				if !o.Returned {
					return model.Fail("probe %v did not finish: %v", o.Process, o.Err)
				}
			}
			return model.Ok()
		},
	}
	inst.Runners[0] = runnerFunc(func(ctx context.Context, _ any) (any, error) {
		p.started <- struct{}{}
		if seed <= p.failFastBelow {
			return nil, fmt.Errorf("injected fast failure (seed %d)", seed)
		}
		<-ctx.Done()
		return nil, ctx.Err()
	})
	return inst, nil
}

// TestSweepCancellationSemantics is the contract for a cancelled sweep:
// grid points cut short by ctx — whether never submitted, never started, or
// in flight when the cancellation hit — are Cancelled, not Faulted, and
// never pollute Failures; genuine pre-cancellation spec violations stay
// Faulted. The three buckets always sum to Runs.
func TestSweepCancellationSemantics(t *testing.T) {
	seeds := []int64{1, 2, 3, 4, 5, 6, 7, 8}
	proto := cancelProbeProto{failFastBelow: 2, started: make(chan struct{}, len(seeds))}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	var streamed []int
	var mu sync.Mutex
	grid := Grid{
		Seeds:        seeds,
		Workers:      2,
		KeepFailures: len(seeds),
		OnRun: func(i int, _ *Result) {
			mu.Lock()
			streamed = append(streamed, i)
			mu.Unlock()
		},
	}
	resCh := make(chan SweepResult, 1)
	go func() { resCh <- Sweep(ctx, New(1), grid, proto) }()

	// Two fail-fast runs (seeds 1, 2) complete, two more start and block;
	// then the sweep is cancelled mid-flight.
	for i := 0; i < 4; i++ {
		<-proto.started
	}
	cancel()
	res := <-resCh

	if res.Runs != len(seeds) {
		t.Fatalf("Runs = %d, want %d", res.Runs, len(seeds))
	}
	if got := res.Passed + res.Faulted + res.Cancelled; got != res.Runs {
		t.Fatalf("Passed (%d) + Faulted (%d) + Cancelled (%d) = %d, want Runs = %d",
			res.Passed, res.Faulted, res.Cancelled, got, res.Runs)
	}
	if res.Passed != 0 || res.Faulted != 2 || res.Cancelled != 6 {
		t.Fatalf("classification = %d passed / %d faulted / %d cancelled, want 0/2/6",
			res.Passed, res.Faulted, res.Cancelled)
	}
	if len(res.Failures) != 2 {
		t.Fatalf("retained %d failures, want the 2 genuine ones", len(res.Failures))
	}
	for i, f := range res.Failures {
		if f.Config.Seed > 2 {
			t.Errorf("failure %d has seed %d: a ctx-induced run leaked into Failures (verdict: %v)",
				i, f.Config.Seed, f.Verdict)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if len(streamed) != 2 {
		t.Errorf("OnRun streamed %d runs, want only the 2 executed (cancelled runs are not reported)", len(streamed))
	}
}

// TestSweepShardsPartitionGrid is the sharding contract: shard k/m covers a
// contiguous slice of the row-major index space, the shards are pairwise
// disjoint, their union covers every grid index exactly once, and the
// shard-summed aggregates equal the unsharded sweep's.
func TestSweepShardsPartitionGrid(t *testing.T) {
	base := New(3)
	grid := Grid{
		Seeds:   []int64{31, 32, 33, 34, 35},
		Delays:  []DelayRange{{0, 200 * time.Microsecond}, {500 * time.Microsecond, 2 * time.Millisecond}},
		Crashes: [][]Crash{nil, {{P: 2, At: 300 * time.Microsecond}}},
	}
	size := grid.Size() // 5 × 2 × 2 = 20, not divisible by 3 shards
	full := Sweep(context.Background(), base, grid, Consensus{})
	if full.GridSize != size || full.IndexLo != 0 || full.IndexHi != size {
		t.Fatalf("unsharded sweep bounds = [%d, %d) of %d, want [0, %d)", full.IndexLo, full.IndexHi, full.GridSize, size)
	}

	const shards = 3
	covered := make([]int, size)
	var mu sync.Mutex
	var runs, passed, faulted int
	prevHi := 0
	for k := 1; k <= shards; k++ {
		g := grid
		g.Shard = Shard{Index: k, Count: shards}
		g.OnRun = func(i int, _ *Result) {
			mu.Lock()
			covered[i]++
			mu.Unlock()
		}
		r := Sweep(context.Background(), base, g, Consensus{})
		if r.GridSize != size || r.IndexLo != prevHi || r.IndexHi <= r.IndexLo {
			t.Fatalf("shard %d/%d covers [%d, %d) of %d, want contiguous from %d", k, shards, r.IndexLo, r.IndexHi, r.GridSize, prevHi)
		}
		if r.Runs != r.IndexHi-r.IndexLo {
			t.Fatalf("shard %d/%d: Runs = %d, want %d", k, shards, r.Runs, r.IndexHi-r.IndexLo)
		}
		prevHi = r.IndexHi
		runs += r.Runs
		passed += r.Passed
		faulted += r.Faulted
	}
	if prevHi != size {
		t.Fatalf("last shard ends at %d, want %d", prevHi, size)
	}
	for i, c := range covered {
		if c != 1 {
			t.Fatalf("grid index %d executed %d times across shards, want exactly once", i, c)
		}
	}
	if runs != full.Runs || passed != full.Passed || faulted != full.Faulted {
		t.Fatalf("shard-summed aggregates %d/%d/%d diverge from unsharded %d/%d/%d",
			runs, passed, faulted, full.Runs, full.Passed, full.Faulted)
	}
}

// TestSweepKeepZeroRetainsNone: the zero KeepFailures is the count-only mode
// needed at million-run scale — every failure is counted, none is retained.
func TestSweepKeepZeroRetainsNone(t *testing.T) {
	badBase := New(5,
		WithCrashes(Crash{2, 0}, Crash{3, 0}, Crash{4, 0}),
		WithTimeout(200*time.Millisecond),
	)
	res := Sweep(context.Background(), badBase, Grid{Seeds: []int64{1, 2}}, Consensus{Majority: true})
	if res.Faulted != 2 {
		t.Fatalf("Faulted = %d, want 2", res.Faulted)
	}
	if len(res.Failures) != 0 || len(res.FailureIndices) != 0 {
		t.Fatalf("KeepFailures 0 retained %d failures, want none", len(res.Failures))
	}
}

// TestSweepSeedSpan: the unmaterialised seed range behaves exactly like the
// equivalent explicit seed list — same size, same row-major expansion, same
// ordering after explicit Seeds — while staying O(1) in memory.
func TestSweepSeedSpan(t *testing.T) {
	base := New(3)
	explicit := Grid{
		Seeds:   []int64{5, 6, 7, 8},
		Crashes: [][]Crash{nil, {{P: 2, At: 0}}},
	}
	span := Grid{
		SeedSpan: SeedSpan{From: 5, N: 4},
		Crashes:  [][]Crash{nil, {{P: 2, At: 0}}},
	}
	if span.Size() != explicit.Size() {
		t.Fatalf("span grid size %d != explicit %d", span.Size(), explicit.Size())
	}
	for i := 0; i < span.Size(); i++ {
		a, b := explicit.ConfigAt(base.Config(), i), span.ConfigAt(base.Config(), i)
		if a.Seed != b.Seed || len(a.Crashes) != len(b.Crashes) {
			t.Fatalf("index %d: span config (seed %d) != explicit (seed %d)", i, b.Seed, a.Seed)
		}
	}

	// Explicit seeds come first, the span follows.
	mixed := Grid{Seeds: []int64{100}, SeedSpan: SeedSpan{From: 200, N: 2}}
	if mixed.Size() != 3 {
		t.Fatalf("mixed seed axis size %d, want 3", mixed.Size())
	}
	for i, want := range []int64{100, 200, 201} {
		if got := mixed.ConfigAt(base.Config(), i).Seed; got != want {
			t.Fatalf("mixed index %d: seed %d, want %d", i, got, want)
		}
	}

	// A sharded sweep over a span-only grid still tiles it exactly.
	g := Grid{SeedSpan: SeedSpan{From: 1, N: 10}, Shard: Shard{Index: 2, Count: 3}}
	res := Sweep(context.Background(), base, g, Consensus{})
	if res.GridSize != 10 || res.IndexLo != 3 || res.IndexHi != 6 || !res.AllPassed() {
		t.Fatalf("span shard sweep = %+v", res)
	}
}

// TestGridFingerprint: the fingerprint identifies the work — base config and
// every grid axis — and nothing about how it is executed (shard, workers,
// retention), so shards of one grid agree on it and different grids do not.
func TestGridFingerprint(t *testing.T) {
	base := New(5, WithSeed(1)).Config()
	grid := Grid{
		Seeds:     []int64{1, 2, 3},
		SeedSpan:  SeedSpan{From: 10, N: 4},
		Detectors: []fd.DetectorSpec{{Class: fd.ClassOmegaSigma}, {Class: fd.ClassPerfect}},
		Delays:    []DelayRange{{Min: 1000, Max: 3000}},
		Crashes:   [][]Crash{nil, {{P: 3, At: 5 * time.Millisecond}}},
	}
	fp := grid.Fingerprint(base)
	if fp != grid.Fingerprint(base) {
		t.Fatal("fingerprint not stable across calls")
	}

	sharded := grid
	sharded.Shard = Shard{Index: 2, Count: 3}
	sharded.Workers = 7
	sharded.KeepFailures = 3
	if sharded.Fingerprint(base) != fp {
		t.Fatal("execution detail (shard/workers/keep) leaked into the fingerprint")
	}

	changed := grid
	changed.Seeds = []int64{1, 2, 4}
	if changed.Fingerprint(base) == fp {
		t.Fatal("seed axis change did not change the fingerprint")
	}
	otherBase := New(5, WithSeed(1), WithSafetyOnly()).Config()
	if grid.Fingerprint(otherBase) == fp {
		t.Fatal("base config change did not change the fingerprint")
	}
}
