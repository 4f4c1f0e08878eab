package scenario

import (
	"context"
	"testing"
	"time"

	"weakestfd/internal/model"
	"weakestfd/internal/nbac"
	"weakestfd/internal/qc"
)

func TestScenarioTwoPC(t *testing.T) {
	// Crash-free, all-Yes: the blocking baseline commits everywhere.
	res := New(4, WithSeed(21)).Run(context.Background(), TwoPC{})
	if !res.Verdict.OK {
		t.Fatalf("verdict: %v", res.Verdict)
	}
	for _, o := range res.Outcomes {
		if o.Value != nbac.Commit {
			t.Fatalf("%v decided %v, want Commit", o.Process, o.Value)
		}
	}

	// One No vote: abort everywhere.
	res = New(4, WithSeed(22)).Run(context.Background(),
		TwoPC{Votes: []nbac.Vote{nbac.VoteYes, nbac.VoteNo, nbac.VoteYes, nbac.VoteYes}})
	if !res.Verdict.OK {
		t.Fatalf("verdict: %v", res.Verdict)
	}
	for _, o := range res.Outcomes {
		if o.Value != nbac.Abort {
			t.Fatalf("%v decided %v, want Abort", o.Process, o.Value)
		}
	}
}

func TestScenarioTwoPCBlocksOnCoordinatorCrash(t *testing.T) {
	// The baseline's defining defect: the coordinator crashes before
	// deciding and every survivor blocks until the wall-clock backstop.
	// Safety still holds (nobody decides), which is all the safety-only
	// check demands.
	res := New(3,
		WithSeed(23),
		WithCrash(0, 0),
		WithSafetyOnly(),
		WithTimeout(300*time.Millisecond),
	).Run(context.Background(), TwoPC{})
	if !res.Verdict.OK {
		t.Fatalf("verdict: %v", res.Verdict)
	}
	for _, o := range res.Outcomes {
		if o.Returned {
			t.Fatalf("%v decided %v under a crashed coordinator — 2PC should block", o.Process, o.Value)
		}
	}
}

func TestScenarioNBACQC(t *testing.T) {
	// Crash-free: Figure 5 decides the smallest proposal (process 0's 0).
	res := New(4, WithSeed(24)).Run(context.Background(), NBACQC{})
	if !res.Verdict.OK {
		t.Fatalf("verdict: %v", res.Verdict)
	}
	for _, o := range res.Outcomes {
		d, ok := o.Value.(qc.Decision)
		if !ok {
			t.Fatalf("%v returned %T, want qc.Decision", o.Process, o.Value)
		}
		if d.Quit || d.Value != 0 {
			t.Fatalf("%v decided %v, want value 0", o.Process, d)
		}
	}

	// A pre-run crash lets the inner NBAC abort, which Figure 5 maps to a
	// legitimate Quit; either regime must satisfy the QC spec.
	res = New(4, WithSeed(25), WithCrash(3, 0)).Run(context.Background(), NBACQC{})
	if !res.Verdict.OK {
		t.Fatalf("crash run verdict: %v", res.Verdict)
	}
}

func TestScenarioMultiConsensus(t *testing.T) {
	const rounds = 4
	res := New(5, WithSeed(26)).Run(context.Background(), MultiConsensus{Rounds: rounds})
	if !res.Verdict.OK {
		t.Fatalf("verdict: %v", res.Verdict)
	}
	for _, o := range res.Outcomes {
		ds, ok := o.Value.([]RoundDecision)
		if !ok {
			t.Fatalf("%v returned %T, want []RoundDecision", o.Process, o.Value)
		}
		if len(ds) != rounds {
			t.Fatalf("%v completed %d rounds, want %d", o.Process, len(ds), rounds)
		}
		for r, d := range ds {
			if d.Round != r {
				t.Fatalf("%v round %d labelled %d", o.Process, r, d.Round)
			}
		}
	}
}

func TestScenarioMultiConsensusWithCrash(t *testing.T) {
	// A follower crash partway through the instance sequence: survivors
	// must still decide every round, and every decided round must satisfy
	// the consensus spec independently.
	res := New(5,
		WithSeed(27),
		WithCrash(4, 2*time.Millisecond),
		WithDelays(200*time.Microsecond, time.Millisecond),
	).Run(context.Background(), MultiConsensus{Rounds: 3})
	if !res.Verdict.OK {
		t.Fatalf("verdict: %v", res.Verdict)
	}
}

func TestScenarioSigmaExtraction(t *testing.T) {
	for _, tc := range []struct {
		name  string
		proto SigmaExtraction
	}{
		{"sigma-registers", SigmaExtraction{}},
		{"majority-registers", SigmaExtraction{Majority: true}},
	} {
		res := New(3, WithSeed(28)).Run(context.Background(), tc.proto)
		if !res.Verdict.OK {
			t.Fatalf("%s: verdict: %v", tc.name, res.Verdict)
		}
		// A mid-run crash must not be reported as a violation: the eventual-
		// accuracy clause is not checkable at the fixed round cutoff (the
		// survivors' last quorums may legitimately still contain the crashed
		// process), so the descriptor checks intersection + termination only.
		crashy := New(3, WithSeed(28), WithCrash(2, 300*time.Microsecond)).Run(context.Background(), tc.proto)
		if !crashy.Verdict.OK {
			t.Fatalf("%s with crash: verdict: %v", tc.name, crashy.Verdict)
		}
		for _, o := range res.Outcomes {
			set, ok := o.Value.(model.ProcessSet)
			if !ok {
				t.Fatalf("%s: %v returned %T, want model.ProcessSet", tc.name, o.Process, o.Value)
			}
			if set.IsEmpty() {
				t.Fatalf("%s: %v emulated an empty quorum", tc.name, o.Process)
			}
		}
	}
}

// TestSweepSmokeNewProtocols puts every newly-descriptored workload through
// a small seed × delay grid — the same shape the CI smoke matrix uses for
// the original families. TwoPC sweeps crash-free (it is the blocking
// baseline); the rest also take a mid-run follower crash.
func TestSweepSmokeNewProtocols(t *testing.T) {
	seeds := []int64{1, 2, 3, 4}
	delays := []DelayRange{
		{0, 200 * time.Microsecond},
		{500 * time.Microsecond, 2 * time.Millisecond},
	}
	crashFree := Grid{Seeds: seeds, Delays: delays}
	crashy := Grid{Seeds: seeds, Delays: delays, Crashes: [][]Crash{
		nil,
		{{P: 3, At: 300 * time.Microsecond}},
	}}
	cases := []struct {
		n     int
		grid  Grid
		proto Protocol
	}{
		{4, crashFree, TwoPC{}},
		{4, crashy, NBACQC{}},
		{4, crashy, MultiConsensus{Rounds: 2}},
		{3, crashFree, SigmaExtraction{}},
	}
	for _, tc := range cases {
		res := Sweep(context.Background(), New(tc.n), tc.grid, tc.proto)
		if !res.AllPassed() {
			t.Fatalf("%s: %d of %d runs failed; first: %v",
				tc.proto.Name(), res.Faulted, res.Runs, firstViolation(res))
		}
	}
}
