package scenario

import (
	"context"
	"testing"
	"time"

	"weakestfd/internal/fd"
	"weakestfd/internal/model"
	"weakestfd/internal/nbac"
	"weakestfd/internal/qc"
)

// ---- single runs: every built-in protocol through the one-call harness ----

func TestScenarioConsensusNoFailures(t *testing.T) {
	res := New(5, WithSeed(1)).Run(context.Background(), Consensus{})
	if !res.Verdict.OK {
		t.Fatalf("verdict: %v", res.Verdict)
	}
	for _, o := range res.Outcomes {
		if !o.Returned {
			t.Fatalf("%v never returned: %v", o.Process, o.Err)
		}
	}
	if res.VirtualEnd == 0 {
		t.Fatalf("virtual clock never advanced")
	}
}

func TestScenarioConsensusLeaderCrashMinorityCorrect(t *testing.T) {
	// The initial leader and two more processes crash mid-run; (Ω, Σ)
	// consensus still terminates at the minority of survivors.
	res := New(5,
		WithSeed(2),
		WithCrash(0, 300*time.Microsecond),
		WithCrash(2, 500*time.Microsecond),
		WithCrash(4, 700*time.Microsecond),
	).Run(context.Background(), Consensus{})
	if !res.Verdict.OK {
		t.Fatalf("verdict: %v", res.Verdict)
	}
	if res.Pattern.NumFaulty() == 0 {
		t.Fatalf("no crash was injected")
	}
}

func TestScenarioConsensusRegisterRoute(t *testing.T) {
	res := New(3, WithSeed(3)).Run(context.Background(), Consensus{Registers: true})
	if !res.Verdict.OK {
		t.Fatalf("verdict: %v", res.Verdict)
	}
}

func TestScenarioConsensusMajorityBaselineSafetyOnly(t *testing.T) {
	// The Ω-plus-majority baseline loses liveness once a majority has
	// crashed; with a short wall-clock budget and safety-only checking the
	// run must still be safe (agreement/validity on whatever returned).
	res := New(5,
		WithSeed(4),
		WithCrashes(Crash{2, 0}, Crash{3, 0}, Crash{4, 0}),
		WithSafetyOnly(),
		WithTimeout(300*time.Millisecond),
	).Run(context.Background(), Consensus{Majority: true})
	if !res.Verdict.OK {
		t.Fatalf("verdict: %v", res.Verdict)
	}
	for _, o := range res.Outcomes {
		if o.Returned {
			t.Fatalf("%v decided %v with a crashed majority under the majority guard", o.Process, o.Value)
		}
	}
}

func TestScenarioQC(t *testing.T) {
	// Ψ switches late and prefers FS when a failure occurred by then: the
	// pre-run crash makes every survivor Quit.
	res := New(4,
		WithSeed(5),
		WithCrash(3, 0),
		WithDetector(fd.MustParseSpec("omega-sigma{switch:10,policy:fs-on-failure}")),
	).Run(context.Background(), QC{})
	if !res.Verdict.OK {
		t.Fatalf("verdict: %v", res.Verdict)
	}
	for _, o := range res.Outcomes {
		if !o.Returned {
			continue
		}
		if d := o.Value.(qc.Decision); !d.Quit {
			t.Fatalf("%v decided %v, want Quit after a pre-run failure", o.Process, d)
		}
	}
}

func TestScenarioNBAC(t *testing.T) {
	// All-Yes, no failures: must Commit everywhere.
	res := New(4, WithSeed(6)).Run(context.Background(), NBAC{})
	if !res.Verdict.OK {
		t.Fatalf("verdict: %v", res.Verdict)
	}
	for _, o := range res.Outcomes {
		if o.Value != nbac.Commit {
			t.Fatalf("%v decided %v, want Commit", o.Process, o.Value)
		}
	}

	// One No vote: must Abort everywhere.
	res = New(4, WithSeed(7)).Run(context.Background(), NBAC{Votes: []nbac.Vote{nbac.VoteYes, nbac.VoteNo, nbac.VoteYes, nbac.VoteYes}})
	if !res.Verdict.OK {
		t.Fatalf("verdict: %v", res.Verdict)
	}
	for _, o := range res.Outcomes {
		if o.Value != nbac.Abort {
			t.Fatalf("%v decided %v, want Abort", o.Process, o.Value)
		}
	}
}

func TestScenarioRegisters(t *testing.T) {
	res := New(5, WithSeed(8), WithCrash(4, 400*time.Microsecond)).Run(context.Background(), Registers{})
	if !res.Verdict.OK {
		t.Fatalf("verdict: %v", res.Verdict)
	}
}

func TestScenarioDropRateSafetyOnly(t *testing.T) {
	// A lossy network may starve liveness but must never break agreement;
	// the run is bounded by the wall-clock backstop and checked for safety
	// only.
	res := New(3,
		WithSeed(9),
		WithDropRate(0.4),
		WithSafetyOnly(),
		WithTimeout(300*time.Millisecond),
	).Run(context.Background(), Consensus{})
	if !res.Verdict.OK {
		t.Fatalf("verdict: %v", res.Verdict)
	}
}

func TestScenarioSuspicionDelay(t *testing.T) {
	// With a suspicion delay the crashed leader stays trusted for a while;
	// consensus must still terminate once the delay expires.
	res := New(3,
		WithSeed(10),
		WithCrash(0, 0),
		WithDetector(fd.MustParseSpec("omega-sigma{suspect:50}")),
	).Run(context.Background(), Consensus{})
	if !res.Verdict.OK {
		t.Fatalf("verdict: %v", res.Verdict)
	}
}

// ---- sweep ----

func TestSweepGridExpansion(t *testing.T) {
	base := New(3, WithSeed(1), WithCrash(0, time.Millisecond))
	grid := Grid{
		Seeds:   []int64{1, 2, 3},
		Delays:  []DelayRange{{0, 100 * time.Microsecond}, {time.Millisecond, 2 * time.Millisecond}},
		Crashes: [][]Crash{nil, {{P: 1, At: 0}}},
	}
	if got := grid.Size(); got != 12 {
		t.Fatalf("grid size = %d, want 12", got)
	}
	cfgs := expand(base.Config(), grid)
	if len(cfgs) != 12 {
		t.Fatalf("expanded %d configs, want 12", len(cfgs))
	}
	// Row-major: the first config carries the first of every dimension; the
	// crash-free point replaces (not inherits) the base schedule.
	if cfgs[0].Seed != 1 || len(cfgs[0].Crashes) != 0 || cfgs[1].Crashes[0].P != 1 {
		t.Fatalf("unexpected expansion order: %+v", cfgs[:2])
	}
	// Empty dimensions fall back to the base values.
	cfgs = expand(base.Config(), Grid{})
	if len(cfgs) != 1 || cfgs[0].Seed != 1 || len(cfgs[0].Crashes) != 1 {
		t.Fatalf("empty grid expansion wrong: %+v", cfgs)
	}
}

func TestSweepAggregatesAndReportsFailures(t *testing.T) {
	base := New(3, WithSafetyOnly())
	grid := Grid{Seeds: []int64{1, 2, 3, 4}, Workers: 2}
	res := Sweep(context.Background(), base, grid, Consensus{})
	if res.Runs != 4 || !res.AllPassed() {
		t.Fatalf("sweep = %+v, want 4 passing runs", res)
	}
	if res.RunsPerSec <= 0 {
		t.Fatalf("throughput not computed")
	}

	// The majority baseline with a crashed majority and termination
	// required fails every run; the failures carry their configs.
	badBase := New(5,
		WithCrashes(Crash{2, 0}, Crash{3, 0}, Crash{4, 0}),
		WithTimeout(200*time.Millisecond),
	)
	bad := Sweep(context.Background(), badBase, Grid{Seeds: []int64{1, 2}, KeepFailures: 1}, Consensus{Majority: true})
	if bad.Passed != 0 || bad.Faulted != 2 {
		t.Fatalf("bad sweep = %+v, want 2 failures", bad)
	}
	if len(bad.Failures) != 1 || bad.Failures[0].Config.Seed != 1 {
		t.Fatalf("failure retention wrong: %d retained", len(bad.Failures))
	}
}

// TestSweepSmoke is the CI smoke matrix: 64 scenarios per protocol family
// (seeds × delays × crash schedules at n=3 and n=5), every verdict passing.
func TestSweepSmoke(t *testing.T) {
	seeds := []int64{1, 2, 3, 4, 5, 6, 7, 8}
	delays := []DelayRange{
		{0, 200 * time.Microsecond},
		{500 * time.Microsecond, 2 * time.Millisecond},
	}
	protos := []Protocol{Consensus{}, QC{}, NBAC{}, Registers{}}
	for _, n := range []int{3, 5} {
		crashes := [][]Crash{
			nil,
			{{P: model.ProcessID(n - 1), At: 300 * time.Microsecond}},
		}
		base := New(n)
		grid := Grid{Seeds: seeds, Delays: delays, Crashes: crashes, KeepFailures: 1}
		for _, proto := range protos {
			res := Sweep(context.Background(), base, grid, proto)
			if !res.AllPassed() {
				t.Fatalf("n=%d %s: %d of %d runs failed; first: %v",
					n, proto.Name(), res.Faulted, res.Runs, firstViolation(res))
			}
		}
	}
}

func firstViolation(res SweepResult) any {
	if len(res.Failures) == 0 {
		return "(no retained failure)"
	}
	return res.Failures[0].Verdict
}
