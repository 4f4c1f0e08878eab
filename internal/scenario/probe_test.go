package scenario

import (
	"context"
	"encoding/json"
	"testing"
	"time"

	"weakestfd/internal/fd"
	"weakestfd/internal/journal"
	"weakestfd/internal/model"
)

// probed returns tc's scenario with probe capture switched on — the
// observe-only twin of the original configuration.
func probed(s *Scenario) *Scenario {
	cfg := s.Config()
	cfg.Probes = true
	return FromConfig(cfg)
}

func encodeProbes(t *testing.T, res Result, name string) []byte {
	t.Helper()
	if res.Probes == nil {
		t.Fatalf("%s: probed run carries no probes (summary %+v)", name, res.TraceSummary)
	}
	data, err := res.Probes.Encode()
	if err != nil {
		t.Fatalf("%s: encode probes: %v", name, err)
	}
	return data
}

// TestProbesDeterministic is the probe half of the trace-determinism
// guarantee: repeated probed runs of an identical seeded configuration
// produce byte-identical Result.Probes for every protocol family, and probe
// capture is observe-only — the probed run keeps the TraceFingerprint of
// its unprobed twin. CI exercises this under -race.
func TestProbesDeterministic(t *testing.T) {
	ctx := context.Background()
	rounds := 3
	if raceEnabled {
		rounds = 2
	}
	for _, tc := range traceFamily() {
		bare := tc.s.Run(ctx, tc.proto)
		if !bare.Verdict.OK {
			t.Fatalf("%s: verdict %v", tc.name, bare.Verdict)
		}
		if bare.Probes != nil {
			t.Fatalf("%s: unprobed run grew probes", tc.name)
		}

		s := probed(tc.s)
		want := s.Run(ctx, tc.proto)
		wantEnc := encodeProbes(t, want, tc.name)
		if want.TraceFingerprint != bare.TraceFingerprint {
			t.Fatalf("%s: probe capture perturbed the trace: %s vs unprobed %s",
				tc.name, want.TraceFingerprint, bare.TraceFingerprint)
		}
		if sp := want.Probes.Stream; sp.Events == 0 || sp.Messages == 0 || sp.MessageDelay.Count == 0 {
			t.Fatalf("%s: implausible stream probes %+v", tc.name, sp)
		}
		for round := 1; round < rounds; round++ {
			got := s.Run(ctx, tc.proto)
			gotEnc := encodeProbes(t, got, tc.name)
			if string(gotEnc) != string(wantEnc) {
				t.Fatalf("%s: probes diverged on round %d\nfirst: %s\nround: %s",
					tc.name, round, wantEnc, gotEnc)
			}
		}
	}
}

// TestProbesDeterministicCrashAtDecisionMoment aims a crash at the exact
// virtual instant the crash-free twin decides — the trace-determinism
// stress case — and requires the probe fold (including the detection join,
// which is where a nondeterministic crash set would surface) to be
// byte-stable across runs.
func TestProbesDeterministicCrashAtDecisionMoment(t *testing.T) {
	ctx := context.Background()
	ref := New(5, WithSeed(108), WithDelays(time.Millisecond, 5*time.Millisecond)).Run(ctx, Consensus{})
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
		s := New(5, WithSeed(108), WithDelays(time.Millisecond, 5*time.Millisecond),
			WithCrash(tc.p, tc.at), WithProbes())
		want := s.Run(ctx, Consensus{})
		wantEnc := encodeProbes(t, want, tc.name)
		got := s.Run(ctx, Consensus{})
		gotEnc := encodeProbes(t, got, tc.name)
		if string(gotEnc) != string(wantEnc) {
			t.Fatalf("%s: probes diverged across runs\nfirst: %s\nagain: %s", tc.name, wantEnc, gotEnc)
		}
	}
}

// TestProbesCrashContent pins the fold's crash-facing content on a run with
// a real mid-run crash: the crash shows up in the stream counters and
// CrashedProcs, the crash-to-decision histogram fills, and the detection
// join against the default suspect history counts the crash.
func TestProbesCrashContent(t *testing.T) {
	ctx := context.Background()
	res := New(5, WithSeed(109), WithDelays(time.Millisecond, 5*time.Millisecond),
		WithCrash(3, 2*time.Millisecond), WithProbes()).Run(ctx, Consensus{})
	if !res.Verdict.OK {
		t.Fatalf("verdict %v", res.Verdict)
	}
	if res.Probes == nil {
		t.Fatal("probed run carries no probes")
	}
	sp := res.Probes.Stream
	if sp.Crashes != 1 || len(sp.CrashedProcs) != 1 || sp.CrashedProcs[0] != 3 {
		t.Fatalf("crash not folded: crashes=%d crashed_procs=%v", sp.Crashes, sp.CrashedProcs)
	}
	if sp.CrashToDecision.Count == 0 {
		t.Fatalf("crash-to-decision histogram empty: %+v", sp)
	}
	d := res.Probes.Detection
	if d == nil || d.Crashes != 1 {
		t.Fatalf("detection join missed the crash: %+v", d)
	}
	if d.Detected+d.Missed != d.Crashes {
		t.Fatalf("detection counters do not partition the crashes: %+v", d)
	}
	if d.Detected > 0 && d.Latency.Count != d.Detected {
		t.Fatalf("latency histogram holds %d samples for %d detections", d.Latency.Count, d.Detected)
	}
}

// TestProbesJournalOffline is the replay -stats contract at the library
// layer: a journaled run always carries its live probe capture in Meta, and
// refolding the journal's record stream offline (after an encode/decode
// round trip) reproduces the live stream probes byte-for-byte — no
// re-execution involved.
func TestProbesJournalOffline(t *testing.T) {
	ctx := context.Background()
	res := New(5, WithSeed(110), WithDelays(time.Millisecond, 10*time.Millisecond),
		WithCrash(4, 3*time.Millisecond), WithJournal(JournalAll)).Run(ctx, Consensus{})
	if !res.Verdict.OK {
		t.Fatalf("verdict %v", res.Verdict)
	}
	if res.Journal == nil {
		t.Fatal("journaled run carries no journal")
	}
	// Journaling implies probing: every v2 journal's Meta carries the live
	// capture even without WithProbes.
	if res.Probes == nil || res.Journal.Meta.Probes == nil {
		t.Fatalf("journaled run carries no live probes (result %v, meta %v)",
			res.Probes != nil, res.Journal.Meta.Probes != nil)
	}
	if !res.Journal.Meta.Probes.Equal(res.Probes) {
		t.Fatal("journal meta probes differ from the result's")
	}

	data, err := res.Journal.Encode()
	if err != nil {
		t.Fatalf("encode journal: %v", err)
	}
	j, err := journal.Decode(data)
	if err != nil {
		t.Fatalf("decode journal: %v", err)
	}
	stream, err := j.RecomputeProbes()
	if err != nil {
		t.Fatalf("recompute probes: %v", err)
	}
	offline, err := json.Marshal(stream)
	if err != nil {
		t.Fatalf("marshal offline stream: %v", err)
	}
	live, err := json.Marshal(res.Probes.Stream)
	if err != nil {
		t.Fatalf("marshal live stream: %v", err)
	}
	if string(offline) != string(live) {
		t.Fatalf("offline refold differs from live capture\noffline: %s\nlive:    %s", offline, live)
	}
}

// TestSweepProbeAggregates: a probed grid folds per-run probes into the
// sweep aggregate and the per-detector aggregates deterministically — the
// fold happens in grid order after the workers join, so worker scheduling
// must not leak into the bytes.
func TestSweepProbeAggregates(t *testing.T) {
	base := New(5, WithSeed(1))
	grid := Grid{
		Seeds:   []int64{31, 32, 33},
		Crashes: [][]Crash{nil, {{P: 4, At: 0}}},
		Workers: 4,
		Probes:  true,
	}
	a := Sweep(context.Background(), base, grid, Consensus{})
	if !a.AllPassed() {
		t.Fatalf("sweep failed: %d of %d, first: %v", a.Faulted, a.Runs, firstViolation(a))
	}
	if a.Probes == nil {
		t.Fatal("probed sweep carries no aggregate")
	}
	if a.Probes.Runs != int64(a.Runs) {
		t.Fatalf("aggregate covers %d runs, sweep ran %d", a.Probes.Runs, a.Runs)
	}
	if a.Probes.Messages.Count != int64(a.Runs) {
		t.Fatalf("message histogram holds %d runs' counts, want %d", a.Probes.Messages.Count, a.Runs)
	}
	b := Sweep(context.Background(), base, grid, Consensus{})
	ja, _ := json.Marshal(a.Probes)
	jb, _ := json.Marshal(b.Probes)
	if string(ja) != string(jb) {
		t.Fatalf("sweep probe aggregate diverged across runs\nfirst: %s\nagain: %s", ja, jb)
	}

	// An unprobed grid stays probe-free.
	grid.Probes = false
	if c := Sweep(context.Background(), base, grid, Consensus{}); c.Probes != nil {
		t.Fatal("unprobed sweep grew a probe aggregate")
	}
}

// TestSweepProbeDetectorAggregates: with a detector axis, each spec's runs
// fold into that detector's aggregate and the per-detector run counts
// partition the sweep.
func TestSweepProbeDetectorAggregates(t *testing.T) {
	base := New(5, WithSeed(1))
	grid := Grid{
		Seeds:     []int64{41, 42},
		Detectors: []fd.DetectorSpec{{Class: fd.ClassOmegaSigma}, {Class: fd.ClassPerfect}},
		Crashes:   [][]Crash{nil, {{P: 4, At: 0}}},
		Workers:   4,
		Probes:    true,
	}
	res := Sweep(context.Background(), base, grid, Consensus{})
	if !res.AllPassed() {
		t.Fatalf("sweep failed: %d of %d, first: %v", res.Faulted, res.Runs, firstViolation(res))
	}
	if len(res.Detectors) == 0 {
		t.Fatal("detector axis produced no per-detector counts")
	}
	var runs int64
	for _, d := range res.Detectors {
		if d.Probes == nil {
			t.Fatalf("detector %s carries no probe aggregate", d.Spec)
		}
		if d.Probes.Runs != int64(d.Runs) {
			t.Fatalf("detector %s aggregate covers %d runs, counted %d", d.Spec, d.Probes.Runs, d.Runs)
		}
		runs += d.Probes.Runs
	}
	if runs != res.Probes.Runs {
		t.Fatalf("per-detector aggregates cover %d runs, sweep aggregate %d", runs, res.Probes.Runs)
	}
}
