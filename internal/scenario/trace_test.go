package scenario

import (
	"context"
	"maps"
	"runtime"
	"testing"
	"time"

	"weakestfd/internal/fd"
	"weakestfd/internal/model"
)

// traceFamily lists one representative point per protocol family. Unlike
// determinismFamily (which pins the outcome fingerprint and therefore needs
// schedule-independent winners), the trace contract pins the entire grant and
// delivery schedule, so any seeded configuration qualifies — the assertion is
// byte-equality of Result.TraceFingerprint across repeated runs, the tentpole
// guarantee of the step scheduler.
func traceFamily() []struct {
	name  string
	s     *Scenario
	proto Protocol
} {
	return []struct {
		name  string
		s     *Scenario
		proto Protocol
	}{
		{"consensus", New(5, WithSeed(101), WithDelays(time.Millisecond, 10*time.Millisecond)), Consensus{}},
		{"qc", New(4, WithSeed(102)), QC{}},
		{"nbac", New(4, WithSeed(103)), NBAC{}},
		{"twopc", New(4, WithSeed(104)), TwoPC{}},
		{"nbacqc", New(4, WithSeed(105)), NBACQC{}},
		{"multiconsensus", New(4, WithSeed(106)), MultiConsensus{Rounds: 2}},
		{"registers", New(3, WithSeed(107)), Registers{Values: []int{7, 8, 9}}},
		{"extract/sigma", New(5, WithSeed(7), WithCrash(4, time.Millisecond)), SigmaExtraction{}},
		{"extract/sigma-majority", New(4, WithSeed(112)), SigmaExtraction{Majority: true}},
	}
}

// TestTraceDeterministic is the trace-determinism guarantee: repeated runs of
// an identical seeded configuration produce a non-empty, byte-identical
// TraceFingerprint (and identical shape counters) for every protocol family.
// CI exercises this under -race, where goroutine scheduling noise is maximal —
// exactly what the quiescence handshake must make invisible.
func TestTraceDeterministic(t *testing.T) {
	ctx := context.Background()
	rounds := 3
	if raceEnabled {
		rounds = 2
	}
	for _, tc := range traceFamily() {
		want := tc.s.Run(ctx, tc.proto)
		if !want.Verdict.OK {
			t.Fatalf("%s: verdict %v", tc.name, want.Verdict)
		}
		if want.TraceFingerprint == "" {
			t.Fatalf("%s: run produced no trace fingerprint", tc.name)
		}
		if want.TraceSummary.Events == 0 || want.TraceSummary.Grants == 0 {
			t.Fatalf("%s: implausible trace counters %+v", tc.name, want.TraceSummary)
		}
		for round := 1; round < rounds; round++ {
			got := tc.s.Run(ctx, tc.proto)
			if got.TraceFingerprint != want.TraceFingerprint {
				t.Fatalf("%s: trace fingerprint diverged on round %d\nfirst: %s %+v\nround: %s %+v",
					tc.name, round, want.TraceFingerprint, want.TraceSummary, got.TraceFingerprint, got.TraceSummary)
			}
			if got.TraceSummary != want.TraceSummary {
				t.Fatalf("%s: trace counters diverged on round %d: %+v vs %+v",
					tc.name, round, want.TraceSummary, got.TraceSummary)
			}
			if got.Fingerprint() != want.Fingerprint() {
				t.Fatalf("%s: outcome fingerprint diverged on round %d", tc.name, round)
			}
		}
	}
}

// TestTraceDeterministicAcrossGOMAXPROCS: the schedule is the dispatcher's
// decision alone, so the trace of a seeded run does not depend on how many
// processors the Go runtime schedules on. A handful of points — a crashy
// consensus, heartbeat detectors, qc, nbac and registers — give the same
// TraceFingerprint and TraceSummary at GOMAXPROCS 1, 2 and 4, and a run cut
// by its wall-clock backstop is tainted, with a reason, at every setting.
func TestTraceDeterministicAcrossGOMAXPROCS(t *testing.T) {
	ctx := context.Background()
	points := []struct {
		name  string
		s     *Scenario
		proto Protocol
	}{
		{"consensus-crashy", New(10, WithSeed(201), WithDelays(time.Millisecond, 20*time.Millisecond),
			WithCrash(3, 2*time.Millisecond), WithCrash(7, 5*time.Millisecond)), Consensus{}},
		{"heartbeat", New(8, WithSeed(202), WithDetector(fd.MustParseSpec("heartbeat{interval:500,timeout:4000}"))), Consensus{}},
		{"qc", New(4, WithSeed(203)), QC{}},
		{"nbac", New(4, WithSeed(204)), NBAC{}},
		{"registers", New(3, WithSeed(205)), Registers{Values: []int{4, 5, 6}}},
	}
	cut := New(3, WithSeed(126), WithDropRate(1), WithSafetyOnly(), WithTimeout(200*time.Millisecond))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	want := make([]Result, len(points))
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		for i, pt := range points {
			got := pt.s.Run(ctx, pt.proto)
			if !got.Verdict.OK || got.TraceFingerprint == "" {
				t.Fatalf("GOMAXPROCS=%d %s: verdict %v, fingerprint %q", procs, pt.name, got.Verdict, got.TraceFingerprint)
			}
			if procs == 1 {
				want[i] = got
				continue
			}
			if got.TraceFingerprint != want[i].TraceFingerprint || got.TraceSummary != want[i].TraceSummary {
				t.Fatalf("%s: trace at GOMAXPROCS=%d differs from GOMAXPROCS=1:\n%s %+v\n%s %+v", pt.name, procs,
					got.TraceFingerprint, got.TraceSummary, want[i].TraceFingerprint, want[i].TraceSummary)
			}
		}
		if res := cut.Run(ctx, Consensus{}); res.TraceFingerprint != "" || res.TraceSummary.TaintReason == "" {
			t.Fatalf("GOMAXPROCS=%d: cut run not tainted: fingerprint %q, summary %+v", procs, res.TraceFingerprint, res.TraceSummary)
		}
	}
}

// TestResultMetricsPinned pins Result.Metrics, keys and values, for a crashy
// consensus run and a heartbeat run: the counters the network kept in a
// string-keyed registry, read back under the same names and with the same
// values now that they are plain fields. The snapshot is taken while the
// dispatcher may still deliver past the trace's end, so only with one P is
// the point it reads deterministic; the test runs at GOMAXPROCS=1.
func TestResultMetricsPinned(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	ctx := context.Background()
	for _, tc := range []struct {
		name string
		s    *Scenario
		want map[string]int64
	}{
		{"consensus-crashy", New(10, WithSeed(201), WithDelays(time.Millisecond, 20*time.Millisecond),
			WithCrash(3, 2*time.Millisecond), WithCrash(7, 5*time.Millisecond)),
			map[string]int64{"crashes": 2, "msgs.delivered": 49, "msgs.dropped": 7, "msgs.sent": 116, "msgs.sent.cons.scn": 116}},
		{"heartbeat", New(8, WithSeed(202), WithDetector(fd.MustParseSpec("heartbeat{interval:500,timeout:4000}"))),
			map[string]int64{"crashes": 0, "msgs.delivered": 544, "msgs.dropped": 0, "msgs.sent": 544, "msgs.sent.cons.scn": 96,
				"msgs.sent.fdimpl.fs": 128, "msgs.sent.fdimpl.omega": 128, "msgs.sent.fdimpl.sigma": 192}},
	} {
		if got := tc.s.Run(ctx, Consensus{}).Metrics; !maps.Equal(got, tc.want) {
			t.Errorf("%s: Metrics = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestTraceDeterministicCrashAtDecisionMoment injects a crash at the exact
// virtual instant a crash-free run of the same seed finishes deciding — the
// tightest race between a crash event and the decision deliveries it competes
// with. The crash is an ordinary (time, seq)-ordered event against a
// deterministic grant schedule, so the full trace must replay
// byte-identically, whichever way the tie resolves.
func TestTraceDeterministicCrashAtDecisionMoment(t *testing.T) {
	ctx := context.Background()
	base := New(5, WithSeed(108), WithDelays(time.Millisecond, 5*time.Millisecond))
	ref := base.Run(ctx, Consensus{})
	if !ref.Verdict.OK {
		t.Fatalf("crash-free reference failed: %v", ref.Verdict)
	}
	decision := ref.VirtualEnd
	for _, tc := range []struct {
		name string
		p    model.ProcessID
		at   time.Duration
	}{
		{"leader-at-decision", 0, decision},
		{"follower-at-decision", 4, decision},
		{"leader-mid-run", 0, decision / 2},
	} {
		s := New(5, WithSeed(108), WithDelays(time.Millisecond, 5*time.Millisecond), WithCrash(tc.p, tc.at))
		want := s.Run(ctx, Consensus{})
		if want.TraceFingerprint == "" {
			t.Fatalf("%s: no trace fingerprint", tc.name)
		}
		got := s.Run(ctx, Consensus{})
		if got.TraceFingerprint != want.TraceFingerprint {
			t.Fatalf("%s: trace diverged across runs\nfirst: %s %+v\nagain: %s %+v",
				tc.name, want.TraceFingerprint, want.TraceSummary, got.TraceFingerprint, got.TraceSummary)
		}
		if got.Fingerprint() != want.Fingerprint() {
			t.Fatalf("%s: outcome fingerprint diverged", tc.name)
		}
	}
}

// TestVirtualEndDeterministic: Result.VirtualEnd is read at the trace
// boundary, so repeated runs of one (seed, config) agree on it even where
// detector tickers keep the dispatcher busy after the last runner exits —
// crashy ◇P and delayed-P points whose clock used to be read while the
// dispatcher was still firing timers.
func TestVirtualEndDeterministic(t *testing.T) {
	ctx := context.Background()
	rounds := 32
	if raceEnabled {
		rounds = 8
	}
	point := func(seed int64, spec string) *Scenario {
		return New(5, WithSeed(seed), WithDelays(time.Millisecond, 20*time.Millisecond),
			WithCrashes(Crash{P: 4, At: 5 * time.Millisecond}, Crash{P: 0, At: 8 * time.Millisecond}),
			WithDetector(fd.MustParseSpec(spec)), WithSafetyOnly())
	}
	for _, tc := range []struct {
		name string
		s    *Scenario
	}{
		{"perfect-suspect10-seed15", point(15, "perfect{suspect:10}")},
		{"eventually-perfect-seed5", point(5, "eventually-perfect{stabilize:50}")},
		{"eventually-perfect-seed8", point(8, "eventually-perfect{stabilize:50}")},
	} {
		want := tc.s.Run(ctx, Consensus{})
		if want.TraceFingerprint == "" || want.VirtualEnd == 0 {
			t.Fatalf("%s: no pinned trace (fingerprint %q, VirtualEnd %v)", tc.name, want.TraceFingerprint, want.VirtualEnd)
		}
		for i := 1; i < rounds; i++ {
			if got := tc.s.Run(ctx, Consensus{}); got.VirtualEnd != want.VirtualEnd {
				t.Fatalf("%s: VirtualEnd %v on run %d, %v on the first", tc.name, got.VirtualEnd, i+1, want.VirtualEnd)
			}
		}
	}
}

// TestMinimizeTrace: trace-mode minimisation holds the reference schedule
// fixed. A crash scheduled far beyond the trace's end never pops before the
// group exits, so its time shrinks (the minimiser rounds it down as long as it
// stays schedule-invisible) while everything the schedule consults is pinned;
// the minimal configuration must reproduce the reference trace byte-for-byte.
func TestMinimizeTrace(t *testing.T) {
	ctx := context.Background()
	base := New(4, WithSeed(110))
	ref := base.Run(ctx, Consensus{})
	if !ref.Verdict.OK || ref.TraceFingerprint == "" {
		t.Fatalf("reference: verdict %v, trace %q", ref.Verdict, ref.TraceFingerprint)
	}
	lateAt := 4 * ref.VirtualEnd
	cfg := New(4, WithSeed(110), WithCrash(3, lateAt)).Config()
	mr, err := MinimizeTrace(ctx, cfg, Consensus{})
	if err != nil {
		t.Fatalf("MinimizeTrace: %v", err)
	}
	if mr.TraceFingerprint == "" {
		t.Fatal("minimal reproducer lost the trace fingerprint")
	}
	if mr.Candidates < 2 {
		t.Fatalf("minimisation ran only %d candidate(s)", mr.Candidates)
	}
	// The reference configuration (with the late crash) must itself share the
	// minimal run's trace: trace equality is the acceptance predicate.
	if got := FromConfig(cfg).Run(ctx, Consensus{}); got.TraceFingerprint != mr.TraceFingerprint {
		t.Fatalf("minimal trace %s does not match reference config's %s", mr.TraceFingerprint, got.TraceFingerprint)
	}
	// And re-running the minimal config reproduces it.
	if got := FromConfig(mr.Config).Run(ctx, Consensus{}); got.TraceFingerprint != mr.TraceFingerprint {
		t.Fatalf("minimal config does not reproduce its own trace: %s vs %s", got.TraceFingerprint, mr.TraceFingerprint)
	}
	// The schedule-invisible crash time shrank.
	for _, c := range mr.Config.Crashes {
		if c.At >= lateAt {
			t.Errorf("schedule-invisible crash time did not shrink: %v (was %v)", c.At, lateAt)
		}
	}
}

// TestMinimizeTraceRefusesTaintedReference: a reference run cut by the
// wall-clock backstop (total message loss: consensus never decides) has no
// trace to hold fixed, so trace-mode minimisation must refuse it rather than
// accept everything.
func TestMinimizeTraceRefusesTaintedReference(t *testing.T) {
	cfg := New(3, WithSeed(111), WithDropRate(1), WithSafetyOnly(), WithTimeout(200*time.Millisecond)).Config()
	if _, err := MinimizeTrace(context.Background(), cfg, Consensus{}); err == nil {
		t.Fatal("MinimizeTrace accepted a tainted reference run")
	}
}
