package explore

import (
	"context"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"weakestfd/internal/fd"
	"weakestfd/internal/model"
	"weakestfd/internal/scenario"
)

// testAlphabet is the detector-class alphabet of the exploration tests: the
// paper's family, the two exact Chandra–Toueg classes and the stabilising ◇
// classes — the same axis the sweep acceptance tests use.
func testAlphabet() []fd.DetectorSpec {
	return []fd.DetectorSpec{
		{Class: fd.ClassOmegaSigma},
		{Class: fd.ClassPerfect},
		fd.MustParseSpec("eventually-perfect{stabilize:50}"),
		fd.MustParseSpec("eventually-strong{stabilize:50}"),
	}
}

// testOptions is the shared exploration setup: (Ω, Σ) consensus at n=5 over
// the class alphabet, a short wall-clock backstop so genuine
// non-termination failures (◇S) cost 150ms, not 30s. The base delay range
// sits on the mutation alphabet's delay floor (see mutate.go): decisions
// stay several milliseconds of virtual time away from every mutated crash,
// keeping each sampled point schedule-determined.
func testOptions(seed int64) Options {
	return Options{
		Seed:          seed,
		Runs:          64,
		Batch:         8,
		Proto:         scenario.Consensus{},
		Base:          scenario.New(5, scenario.WithDelays(time.Millisecond, 3*time.Millisecond), scenario.WithTimeout(150*time.Millisecond)).Config(),
		Classes:       testAlphabet(),
		MinimizeLimit: 1,
	}
}

// exploreSeed is the pinned master seed of the deterministic tests.
const exploreSeed = 5

// TestExploreDeterministicPerSeed is the reproducibility contract: the whole
// exploration — corpus, energies' effect on picks, failures, minimised
// reproducers — is a pure function of the seed, byte-for-byte, with the
// suspect-history depth in the novelty signature or without it.
func TestExploreDeterministicPerSeed(t *testing.T) {
	for _, depth := range []bool{false, true} {
		t.Run(fmt.Sprintf("depth-signal=%t", depth), func(t *testing.T) {
			ctx := context.Background()
			opts := testOptions(exploreSeed)
			opts.DepthSignal = depth
			a, err := Explore(ctx, opts)
			if err != nil {
				t.Fatalf("explore: %v", err)
			}
			b, err := Explore(ctx, opts)
			if err != nil {
				t.Fatalf("second explore: %v", err)
			}
			if ca, cb := a.Canonical(), b.Canonical(); ca != cb {
				t.Fatalf("exploration not reproducible per seed\n--- first ---\n%s\n--- second ---\n%s", ca, cb)
			}
			if a.Runs != a.Budget {
				t.Fatalf("executed %d of %d budgeted runs without cancellation", a.Runs, a.Budget)
			}
		})
	}
}

// TestExploreCorpusDedup: the corpus holds one entry per behaviour
// signature, every executed run is either novel or a counted duplicate, and
// the base config seeds the corpus.
func TestExploreCorpusDedup(t *testing.T) {
	rep, err := Explore(context.Background(), testOptions(exploreSeed))
	if err != nil {
		t.Fatalf("explore: %v", err)
	}
	seen := map[string]bool{}
	for _, e := range rep.Corpus {
		if seen[e.Signature] {
			t.Fatalf("corpus holds signature twice: %s", e.Signature)
		}
		seen[e.Signature] = true
	}
	if rep.Novel != len(rep.Corpus) {
		t.Fatalf("Novel = %d, corpus holds %d", rep.Novel, len(rep.Corpus))
	}
	if rep.Novel+rep.Duplicates != rep.Runs {
		t.Fatalf("runs do not partition: %d novel + %d dup != %d runs", rep.Novel, rep.Duplicates, rep.Runs)
	}
	if rep.Novel < 4 {
		t.Fatalf("exploration found only %d behaviour classes; the axis alone has more", rep.Novel)
	}
	first := rep.Corpus[0]
	if first.Parent != -1 || first.Mutator != "base" || first.FoundAtRun != 1 {
		t.Fatalf("corpus[0] is not the base config: %+v", first)
	}
	for _, f := range rep.Failures {
		if !seen[f.Signature] {
			t.Fatalf("failure signature %q missing from corpus", f.Signature)
		}
	}
}

// TestExploreFindsAndMinimizesKnownFailureFasterThanGrid is the acceptance
// criterion: starting from a passing base, the feedback loop must reach the
// known ◇S consensus non-termination failure in strictly fewer runs than the
// equivalent uniform grid (same class alphabet, the single-crash schedule
// family the crash mutator draws from, weakest class last — the natural
// sweep layout), and shrink it to the canonical minimal reproducer.
func TestExploreFindsAndMinimizesKnownFailureFasterThanGrid(t *testing.T) {
	ctx := context.Background()
	rep, err := Explore(ctx, testOptions(exploreSeed))
	if err != nil {
		t.Fatalf("explore: %v", err)
	}
	if rep.FirstFailureRun == 0 {
		t.Fatalf("exploration found no failure in %d runs", rep.Runs)
	}

	// The equivalent uniform grid: every alphabet class × the single-crash
	// schedules ('-' plus one mid-protocol crash per process) over the same
	// base scenario. Row-major scan, runs-to-first-failure.
	crashAxis := [][]scenario.Crash{nil}
	for p := 4; p >= 0; p-- {
		crashAxis = append(crashAxis, []scenario.Crash{{P: model.ProcessID(p), At: 500 * time.Microsecond}})
	}
	grid := scenario.Grid{Detectors: testAlphabet(), Crashes: crashAxis}
	gridRuns := 0
	baseCfg := testOptions(exploreSeed).Base
	for i := 0; i < grid.Size(); i++ {
		gridRuns++
		res := scenario.FromConfig(grid.ConfigAt(baseCfg, i)).Run(ctx, scenario.Consensus{})
		if !res.Verdict.OK {
			break
		}
	}
	t.Logf("explore first failure at run %d; uniform grid at run %d of %d", rep.FirstFailureRun, gridRuns, grid.Size())
	if rep.FirstFailureRun >= gridRuns {
		t.Fatalf("exploration (run %d) was not strictly faster than the uniform grid (run %d)", rep.FirstFailureRun, gridRuns)
	}

	// The failure minimises to the canonical reproducer: the pristine ◇S
	// spec (quality perturbation zeroed) with crashes at time zero hitting
	// the fallback quorum, losing termination only.
	if len(rep.Minimized) == 0 {
		t.Fatalf("no minimised reproducer (failures: %d)", len(rep.Failures))
	}
	min := rep.Minimized[0]
	if min.Config.Detector.Class != fd.ClassEventuallyStrong {
		t.Fatalf("minimal reproducer is not ◇S: %+v", min.Config.Detector)
	}
	if min.Config.Detector != min.Config.Detector.Zeroed() {
		t.Fatalf("minimal reproducer kept quality perturbation: %v", min.Config.Detector)
	}
	if len(min.Config.Crashes) == 0 {
		t.Fatalf("minimal ◇S reproducer lost its crash schedule")
	}
	for _, c := range min.Config.Crashes {
		if c.At != 0 {
			t.Fatalf("crash time not rounded to zero: %v", min.Config.Crashes)
		}
	}
	if !strings.Contains(strings.Join(min.Violations, " "), "termination") {
		t.Fatalf("minimal reproducer violates something other than termination: %v", min.Violations)
	}
}

// TestSignatureAbstractsSeedKeepsBehaviour: two runs differing only in seed
// share a signature (seed churn is not novelty); a run with a different
// verdict or detector class does not.
func TestSignatureAbstractsSeedKeepsBehaviour(t *testing.T) {
	ctx := context.Background()
	run := func(opts ...scenario.Option) scenario.Result {
		return scenario.New(4, opts...).Run(ctx, scenario.Consensus{})
	}
	a := run(scenario.WithSeed(1))
	b := run(scenario.WithSeed(999))
	if SignatureOf(&a, false, false) != SignatureOf(&b, false, false) {
		t.Fatalf("seed changed the signature:\n%s\n%s", SignatureOf(&a, false, false), SignatureOf(&b, false, false))
	}
	c := run(scenario.WithSeed(1), scenario.WithDetector(fd.MustParseSpec("perfect")))
	if SignatureOf(&a, false, false) == SignatureOf(&c, false, false) {
		t.Fatalf("detector class did not change the signature")
	}
	d := run(scenario.WithSeed(1), scenario.WithDetector(fd.MustParseSpec("eventually-strong{stabilize:50}")),
		scenario.WithCrash(0, 0), scenario.WithTimeout(150*time.Millisecond))
	if d.Verdict.OK {
		t.Fatalf("◇S leader-crash run passed unexpectedly")
	}
	if sd := SignatureOf(&d, false, false); !strings.Contains(sd, "fail(") || !strings.Contains(sd, "termination") {
		t.Fatalf("failing signature does not classify the violation: %s", sd)
	}
}

// TestExploreCancellation: a cancelled exploration reports partial results
// with the remaining budget classified as cancelled, never as failures.
func TestExploreCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rep, err := Explore(ctx, testOptions(exploreSeed))
	if err != nil {
		t.Fatalf("explore: %v", err)
	}
	if rep.Runs != 0 || rep.Cancelled != rep.Budget {
		t.Fatalf("pre-cancelled explore ran %d, cancelled %d of %d", rep.Runs, rep.Cancelled, rep.Budget)
	}
	if len(rep.Failures) != 0 {
		t.Fatalf("cancelled explore reported failures: %+v", rep.Failures)
	}

	// Cancelled inside a generation (generation zero is the base config
	// alone), OnRun streams exactly the runs that count, as Grid.OnRun
	// does: the runs in flight at the cut are Cancelled, not streamed.
	ctx, cancel = context.WithCancel(context.Background())
	defer cancel()
	opts := testOptions(exploreSeed)
	var streamed atomic.Int64
	opts.OnRun = func(int, *scenario.Result) {
		if streamed.Add(1) == 2 {
			cancel()
		}
	}
	rep, err = Explore(ctx, opts)
	if err != nil {
		t.Fatalf("explore: %v", err)
	}
	if n := streamed.Load(); n != int64(rep.Runs) || rep.Runs == 0 || rep.Runs+rep.Cancelled != rep.Budget {
		t.Fatalf("OnRun streamed %d runs; report ran %d, cancelled %d of %d", n, rep.Runs, rep.Cancelled, rep.Budget)
	}
}
