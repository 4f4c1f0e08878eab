package explore

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"weakestfd/internal/fd"
	"weakestfd/internal/model"
	"weakestfd/internal/scenario"
)

// thresholdClass is a synthetic detector class with a hard structural
// boundary at suspect = thresholdBoundary: below it the builder serves the
// exact oracle family, above it the suite loses Σ, so any Σ-consuming
// protocol refuses to set up — an instant, deterministic failure. It gives
// the binary search a known interior boundary to find, with none of the
// wall-clock sensitivity of a starvation boundary.
const (
	thresholdClass    = "frontier-probe"
	thresholdBoundary = model.Time(17)
)

func init() {
	fd.DefaultRegistry().Register(thresholdClass, func(env fd.Env, spec fd.DetectorSpec) (*fd.Suite, error) {
		suite, err := fd.Build(env.Pattern, env.Clock, fd.DetectorSpec{})
		if err != nil {
			return nil, err
		}
		if spec.SuspicionDelay > thresholdBoundary {
			suite.Sigma = nil
		}
		return suite, nil
	}, "suspect")
}

// TestFrontierFindsStructuralBoundary: the binary search brackets the
// synthetic class's boundary exactly.
func TestFrontierFindsStructuralBoundary(t *testing.T) {
	base := scenario.New(4).Config()
	bounds, err := Frontier(context.Background(), base, scenario.Consensus{}, []Axis{
		{Spec: fd.DetectorSpec{Class: thresholdClass}, Param: "suspect", Max: 200},
	}, nil)
	if err != nil {
		t.Fatalf("frontier: %v", err)
	}
	b := bounds[0]
	if b.Unsolvable || b.Censored {
		t.Fatalf("structural boundary misclassified: %+v", b)
	}
	if b.MaxPassing != thresholdBoundary || b.MinFailing != thresholdBoundary+1 {
		t.Fatalf("boundary = (%d, %d], want (%d, %d]", b.MaxPassing, b.MinFailing, thresholdBoundary, thresholdBoundary+1)
	}
	if b.Probes > 12 {
		t.Fatalf("binary search spent %d probes on a 0..200 axis", b.Probes)
	}
}

// TestFrontierMonotonicity pins the implication the search relies on: pass
// at q ⇒ pass at every stronger (smaller) q on the axis. Probed directly on
// both sides of the measured boundary.
func TestFrontierMonotonicity(t *testing.T) {
	ctx := context.Background()
	base := scenario.New(4).Config()
	probe := func(q model.Time) bool {
		cfg := base.Clone()
		cfg.Detector = fd.DetectorSpec{Class: thresholdClass, SuspicionDelay: q}
		return scenario.FromConfig(cfg).Run(ctx, scenario.Consensus{}).Verdict.OK
	}
	for _, q := range []model.Time{0, 1, thresholdBoundary / 2, thresholdBoundary} {
		if !probe(q) {
			t.Fatalf("stronger-than-boundary quality %d failed", q)
		}
	}
	for _, q := range []model.Time{thresholdBoundary + 1, 2 * thresholdBoundary, 200} {
		if probe(q) {
			t.Fatalf("weaker-than-boundary quality %d passed", q)
		}
	}
}

// TestFrontierClassifiesDiamondClasses runs the acceptance axes: on a
// leader-crash consensus schedule, ◇P{stabilize} passes clear to the search
// ceiling (the boundary is censored: any finite prefix burns off in virtual
// time), while ◇S is unsolvable at every quality — its converged quorum
// fallback contains the crashed process, which no stabilisation time fixes.
func TestFrontierClassifiesDiamondClasses(t *testing.T) {
	base := scenario.New(5,
		scenario.WithCrash(0, 0),
		scenario.WithTimeout(500*time.Millisecond),
	).Config()
	bounds, err := Frontier(context.Background(), base, scenario.Consensus{}, []Axis{
		{Spec: fd.DetectorSpec{Class: fd.ClassEventuallyPerfect}, Param: "stabilize", Max: 200},
		{Spec: fd.DetectorSpec{Class: fd.ClassEventuallyStrong}, Param: "stabilize", Max: 200},
	}, []int64{1, 2})
	if err != nil {
		t.Fatalf("frontier: %v", err)
	}
	dp, ds := bounds[0], bounds[1]
	if !dp.Censored || dp.MaxPassing != 200 || dp.Unsolvable {
		t.Fatalf("◇P boundary: %+v, want censored at the ceiling", dp)
	}
	if !ds.Unsolvable {
		t.Fatalf("◇S boundary: %+v, want unsolvable", ds)
	}
	if ds.Runs >= dp.Runs {
		t.Fatalf("unsolvable axis (%d runs) should cost no more than a censored one (%d)", ds.Runs, dp.Runs)
	}
}

// TestFrontierValidatesAxes: unknown classes, foreign parameters and empty
// ceilings fail fast with names, not mid-search.
func TestFrontierValidatesAxes(t *testing.T) {
	for _, tc := range []struct {
		axis Axis
		want string
	}{
		{Axis{Spec: fd.DetectorSpec{Class: "nope"}, Param: "suspect", Max: 10}, "unknown class"},
		{Axis{Spec: fd.DetectorSpec{Class: fd.ClassPerfect}, Param: "stabilize", Max: 10}, "does not consume"},
		{Axis{Spec: fd.DetectorSpec{Class: fd.ClassPerfect}, Param: "suspect", Max: 0}, "ceiling"},
		// An inverted axis never probes 0 (it means "default"), so its
		// bracket [1, Max] needs at least two values.
		{Axis{Spec: fd.DetectorSpec{Class: "heartbeat"}, Param: "timeout", Max: 1}, "ceiling >= 2"},
	} {
		err := ValidateAxis(tc.axis)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("ValidateAxis(%+v) = %v, want %q", tc.axis, err, tc.want)
		}
	}
	if err := ValidateAxis(Axis{Spec: fd.DetectorSpec{Class: fd.ClassEventuallyPerfect}, Param: "stabilize", Max: 10}); err != nil {
		t.Errorf("eventually-perfect axis rejected: %v", err)
	}
	// The heartbeat pacing parameters invert the weakening convention
	// (0 = default, larger timeout = stronger); they are searchable as
	// inverted axes rather than rejected.
	if err := ValidateAxis(Axis{Spec: fd.DetectorSpec{Class: "heartbeat"}, Param: "timeout", Max: 10000}); err != nil {
		t.Errorf("inverted heartbeat axis rejected: %v", err)
	}
}

// invThresholdClass is the inverted twin of thresholdClass: it consumes the
// strengthening "timeout" parameter and loses Σ at and below
// invThresholdBoundary, so among the searchable values [1, Max] the
// protocol fails up to the boundary and passes strictly above it — a known
// interior boundary for the inverted bisection (MaxFailing = boundary,
// MinPassing = boundary + 1).
const (
	invThresholdClass    = "frontier-probe-inverted"
	invThresholdBoundary = model.Time(17)
)

func init() {
	fd.DefaultRegistry().Register(invThresholdClass, func(env fd.Env, spec fd.DetectorSpec) (*fd.Suite, error) {
		suite, err := fd.Build(env.Pattern, env.Clock, fd.DetectorSpec{})
		if err != nil {
			return nil, err
		}
		if spec.HeartbeatTimeout <= invThresholdBoundary {
			suite.Sigma = nil
		}
		return suite, nil
	}, "timeout")
}

// TestFrontierInvertedAxis: a strengthening axis is searched over [1, Max]
// for the smallest passing value, and the bracket comes back in
// MinPassing/MaxFailing.
func TestFrontierInvertedAxis(t *testing.T) {
	base := scenario.New(4).Config()
	bounds, err := Frontier(context.Background(), base, scenario.Consensus{}, []Axis{
		{Spec: fd.DetectorSpec{Class: invThresholdClass}, Param: "timeout", Max: 200},
	}, nil)
	if err != nil {
		t.Fatalf("frontier: %v", err)
	}
	b := bounds[0]
	if !b.Inverted {
		t.Fatalf("axis not marked inverted: %+v", b)
	}
	if b.Unsolvable || b.Censored {
		t.Fatalf("interior inverted boundary misclassified: %+v", b)
	}
	if b.MaxFailing != invThresholdBoundary || b.MinPassing != invThresholdBoundary+1 {
		t.Fatalf("boundary = [%d, %d), want [%d, %d)", b.MaxFailing, b.MinPassing, invThresholdBoundary, invThresholdBoundary+1)
	}
	if b.Probes > 12 {
		t.Fatalf("binary search spent %d probes on a 1..200 axis", b.Probes)
	}
}

// TestFrontierResume: a search interrupted after every run and restarted
// from its checkpointed state reports the same boundaries as an
// uninterrupted one, without redoing completed probes.
func TestFrontierResume(t *testing.T) {
	base := scenario.New(4).Config()
	axes := []Axis{
		{Spec: fd.DetectorSpec{Class: thresholdClass}, Param: "suspect", Max: 200},
		{Spec: fd.DetectorSpec{Class: invThresholdClass}, Param: "timeout", Max: 200},
	}
	seeds := []int64{3, 4}
	want, err := Frontier(context.Background(), base, scenario.Consensus{}, axes, seeds)
	if err != nil {
		t.Fatalf("reference frontier: %v", err)
	}

	// Drive the search run-by-run: cancel after each checkpoint, reload
	// the serialized snapshot, resume.
	var snapshot []byte
	stopAfterCheckpoint := fmt.Errorf("stop")
	for step := 0; ; step++ {
		if step > 10000 {
			t.Fatal("resume loop did not converge")
		}
		var state *FrontierState
		if snapshot != nil {
			state, err = LoadFrontierState(snapshot)
			if err != nil {
				t.Fatalf("step %d: load state: %v", step, err)
			}
		}
		got, err := FrontierResume(context.Background(), base, scenario.Consensus{}, axes, seeds, state, func(st *FrontierState) error {
			data, err := st.Marshal()
			if err != nil {
				return err
			}
			snapshot = data
			return stopAfterCheckpoint
		})
		if err == nil {
			if len(got) != len(want) {
				t.Fatalf("resumed frontier returned %d boundaries, want %d", len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("resumed boundary %d diverged:\n%+v\n%+v", i, got[i], want[i])
				}
			}
			return
		}
		if !strings.Contains(err.Error(), stopAfterCheckpoint.Error()) {
			t.Fatalf("step %d: %v", step, err)
		}
	}
}

// TestFrontierStateRejectsMismatch: resuming against different inputs or a
// future schema version is refused, not silently replayed.
func TestFrontierStateRejectsMismatch(t *testing.T) {
	base := scenario.New(4).Config()
	axes := []Axis{{Spec: fd.DetectorSpec{Class: thresholdClass}, Param: "suspect", Max: 200}}
	state := &FrontierState{SchemaVersion: FrontierStateVersion, Fingerprint: "frontier{something-else}"}
	_, err := FrontierResume(context.Background(), base, scenario.Consensus{}, axes, nil, state, nil)
	if err == nil || !strings.Contains(err.Error(), "fingerprint mismatch") {
		t.Fatalf("mismatched state accepted: %v", err)
	}
	if _, err := LoadFrontierState([]byte(`{"schema_version": 99}`)); err == nil || !strings.Contains(err.Error(), "newer") {
		t.Fatalf("future-versioned state accepted: %v", err)
	}
}

// TestFrontierDeterministic: the search is a pure function of its inputs.
func TestFrontierDeterministic(t *testing.T) {
	base := scenario.New(4).Config()
	axes := []Axis{{Spec: fd.DetectorSpec{Class: thresholdClass}, Param: "suspect", Max: 200}}
	a, err := Frontier(context.Background(), base, scenario.Consensus{}, axes, []int64{3, 4})
	if err != nil {
		t.Fatalf("frontier: %v", err)
	}
	b, err := Frontier(context.Background(), base, scenario.Consensus{}, axes, []int64{3, 4})
	if err != nil {
		t.Fatalf("second frontier: %v", err)
	}
	if a[0] != b[0] {
		t.Fatalf("frontier diverged:\n%+v\n%+v", a[0], b[0])
	}
}
