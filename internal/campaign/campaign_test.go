package campaign

import (
	"bytes"
	"context"
	"os"
	"strings"
	"sync"
	"testing"

	"weakestfd/internal/cliutil"
	"weakestfd/internal/explore"
	"weakestfd/internal/scenario"
)

// testExploreSpec is the shared small explore campaign: quick enough that a
// six-unit campaign runs in test time, rich enough (two classes, crashes
// mutated in) that unit reports carry corpora, failures and duplicates.
func testExploreSpec() *ExploreSpec {
	return &ExploreSpec{
		Proto:    "consensus",
		N:        4,
		Seed:     5,
		Runs:     24,
		Batch:    8,
		Classes:  "omega-sigma,eventually-strong{stabilize:50}",
		Minimize: 1,
	}
}

func planTest(t *testing.T, dir, name string, units, shards int) *Manifest {
	t.Helper()
	m := &Manifest{Name: name, Kind: KindExplore, Units: units, Shards: shards, Explore: testExploreSpec()}
	if err := Plan(dir, m); err != nil {
		t.Fatalf("plan: %v", err)
	}
	return m
}

func runShardOK(t *testing.T, dir string, k int) {
	t.Helper()
	if _, _, err := RunShard(context.Background(), RunOptions{Dir: dir, Shard: k}); err != nil {
		t.Fatalf("run shard %d: %v", k, err)
	}
}

// cancelAfterUnit is a log sink that cancels the context as soon as the
// first unit completes — the in-process stand-in for kill -9 between units.
type cancelAfterUnit struct {
	mu     sync.Mutex
	cancel context.CancelFunc
	buf    bytes.Buffer
}

func (w *cancelAfterUnit) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.buf.Write(p)
	if strings.Contains(w.buf.String(), "completed unit") {
		w.cancel()
	}
	return len(p), nil
}

// TestCampaignShardingAndResumeInvariance is the determinism contract: the
// merged canonical report of a 3-shard campaign — one shard killed mid-range
// and resumed, one unit adopted from a report written before the crashed
// watermark update — is byte-identical to a 1-shard run of the same work.
func TestCampaignShardingAndResumeInvariance(t *testing.T) {
	dirA, dirB := t.TempDir(), t.TempDir()
	planTest(t, dirA, "camp", 6, 3)
	planTest(t, dirB, "camp", 6, 1)

	// Reference: one shard, uninterrupted.
	runShardOK(t, dirB, 1)

	// Fleet: shard 1 runs clean; shard 2 is killed after its first unit.
	runShardOK(t, dirA, 1)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	w := &cancelAfterUnit{cancel: cancel}
	done, total, err := RunShard(ctx, RunOptions{Dir: dirA, Shard: 2, Log: w})
	if err == nil {
		t.Fatalf("killed shard reported success (%d/%d units)", done, total)
	}
	if done != 1 || total != 2 {
		t.Fatalf("killed shard: done=%d total=%d, want 1/2", done, total)
	}

	// Crash-window adoption: unit 3's report already durable (here: the
	// reference run's byte-identical file), watermark not yet advanced.
	unit3, err := os.ReadFile(UnitReportPath(dirB, 3))
	if err != nil {
		t.Fatalf("read reference unit: %v", err)
	}
	if err := os.WriteFile(UnitReportPath(dirA, 3), unit3, 0o644); err != nil {
		t.Fatalf("stage adoptable unit: %v", err)
	}

	// Resume shard 2, run shard 3.
	var log bytes.Buffer
	if _, _, err := RunShard(context.Background(), RunOptions{Dir: dirA, Shard: 2, Log: &log}); err != nil {
		t.Fatalf("resume shard 2: %v", err)
	}
	if !strings.Contains(log.String(), "adopted unit 3") {
		t.Fatalf("resume did not adopt the durable unit report:\n%s", log.String())
	}
	runShardOK(t, dirA, 3)

	mergedA, err := MergeDir(dirA)
	if err != nil {
		t.Fatalf("merge fleet campaign: %v", err)
	}
	mergedB, err := MergeDir(dirB)
	if err != nil {
		t.Fatalf("merge reference campaign: %v", err)
	}
	if ca, cb := mergedA.Canonical(), mergedB.Canonical(); ca != cb {
		t.Fatalf("sharded+killed+resumed campaign diverged from the 1-shard reference\n--- fleet ---\n%s\n--- reference ---\n%s", ca, cb)
	}
	if got := len(mergedA.Explore.Seeds); got != 6 || mergedA.Inputs != 6 {
		t.Fatalf("merged %d seeds from %d inputs, want 6 and 6", got, mergedA.Inputs)
	}
	if c := mergedA.Explore.Corpus; c == nil || len(c.Entries) == 0 {
		t.Fatalf("merged corpus is empty")
	}
	if mergedA.Explore.Runs != 6*24 {
		t.Fatalf("merged runs %d, want %d", mergedA.Explore.Runs, 6*24)
	}
}

// TestPlanImmutable: re-planning identical work is idempotent; re-planning
// different work is refused.
func TestPlanImmutable(t *testing.T) {
	dir := t.TempDir()
	planTest(t, dir, "camp", 4, 2)
	planTest(t, dir, "camp", 4, 2) // identical plan: fine
	m := &Manifest{Name: "camp", Kind: KindExplore, Units: 4, Shards: 4, Explore: testExploreSpec()}
	if err := Plan(dir, m); err == nil || !strings.Contains(err.Error(), "immutable") {
		t.Fatalf("re-plan with different sharding: err=%v, want immutability refusal", err)
	}
}

// TestLoadManifestRefusesParameterFreeFingerprint: a multi-instance or
// twopc manifest whose stored fingerprint does not name the protocol's
// parameter — as manifests planned before fingerprints covered it do not —
// is refused at load, so it never runs work its fingerprint does not
// describe.
func TestLoadManifestRefusesParameterFreeFingerprint(t *testing.T) {
	for _, m := range []*Manifest{
		{Name: "multi", Kind: KindSweep, Units: 2, Shards: 1, Grid: &cliutil.GridSpec{Proto: "consensus/multi", N: 3, Seeds: "1-4", Timeout: "5s"}},
		{Name: "twopc", Kind: KindSweep, Units: 2, Shards: 1, Grid: &cliutil.GridSpec{Proto: "twopc", N: 3, Seeds: "1-4", Timeout: "5s"}},
		{Name: "multi-explore", Kind: KindExplore, Units: 1, Shards: 1, Explore: &ExploreSpec{Proto: "consensus/multi", N: 3, Seed: 5, Runs: 8}},
	} {
		dir := t.TempDir()
		if err := Plan(dir, m); err != nil {
			t.Fatalf("%s: plan: %v", m.Name, err)
		}
		i := strings.LastIndex(m.Fingerprint, ";")
		stale := *m
		stale.Fingerprint = m.Fingerprint[:i] + "}"
		data, err := marshalJSON(&stale)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(manifestPath(dir), data, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadManifest(dir); err == nil || !strings.Contains(err.Error(), "stored fingerprint does not match") {
			t.Errorf("%s: load of a parameter-free fingerprint: err=%v, want a refusal", m.Name, err)
		}
	}
}

// TestShardStateRejectsForeignState: a shard state from another campaign
// (different fingerprint) is refused, not silently resumed.
func TestShardStateRejectsForeignState(t *testing.T) {
	dirA, dirB := t.TempDir(), t.TempDir()
	planTest(t, dirA, "camp", 2, 2)
	other := testExploreSpec()
	other.Runs = 16 // different space fingerprint
	mB := &Manifest{Name: "camp", Kind: KindExplore, Units: 2, Shards: 2, Explore: other}
	if err := Plan(dirB, mB); err != nil {
		t.Fatalf("plan B: %v", err)
	}
	runShardOK(t, dirB, 1)
	data, err := os.ReadFile(shardPath(dirB, 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(shardPath(dirA, 1), data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := RunShard(context.Background(), RunOptions{Dir: dirA, Shard: 1}); err == nil || !strings.Contains(err.Error(), "does not belong") {
		t.Fatalf("foreign shard state: err=%v, want belonging refusal", err)
	}
}

// exploreCorpus runs one small exploration and returns its corpus state.
func exploreCorpus(t *testing.T, seed int64) *explore.CorpusState {
	t.Helper()
	opts, err := testExploreSpec().Options(seed)
	if err != nil {
		t.Fatalf("options: %v", err)
	}
	rep, err := explore.Explore(context.Background(), opts)
	if err != nil {
		t.Fatalf("explore: %v", err)
	}
	return rep.CorpusState()
}

func marshalCorpus(t *testing.T, c *explore.CorpusState) string {
	t.Helper()
	data, err := marshalJSON(c)
	if err != nil {
		t.Fatalf("marshal corpus: %v", err)
	}
	return string(data)
}

func mergeC(t *testing.T, states ...*explore.CorpusState) *explore.CorpusState {
	t.Helper()
	out, err := MergeCorpora(states...)
	if err != nil {
		t.Fatalf("merge corpora: %v", err)
	}
	return out
}

// TestMergeCorporaProperties pins the algebra that makes corpus merging
// shard-layout-independent: idempotence, commutativity and associativity,
// all byte-for-byte on the canonical serialization.
func TestMergeCorporaProperties(t *testing.T) {
	a := exploreCorpus(t, 5)
	b := exploreCorpus(t, 6)
	c := exploreCorpus(t, 7)
	if len(a.Entries) == 0 || len(b.Entries) == 0 || len(c.Entries) == 0 {
		t.Fatal("explorations yielded empty corpora; the properties would hold vacuously")
	}

	if got, want := marshalCorpus(t, mergeC(t, a, a)), marshalCorpus(t, mergeC(t, a)); got != want {
		t.Fatalf("merge not idempotent:\n%s\nvs\n%s", got, want)
	}
	if got, want := marshalCorpus(t, mergeC(t, a, b)), marshalCorpus(t, mergeC(t, b, a)); got != want {
		t.Fatalf("merge not commutative:\n%s\nvs\n%s", got, want)
	}
	left := mergeC(t, mergeC(t, a, b), c)
	right := mergeC(t, a, mergeC(t, b, c))
	if got, want := marshalCorpus(t, left), marshalCorpus(t, right); got != want {
		t.Fatalf("merge not associative:\n%s\nvs\n%s", got, want)
	}

	// The merged corpus is a superset of each input's signatures.
	sigs := map[string]bool{}
	for _, e := range mergeC(t, a, b, c).Entries {
		sigs[e.Signature] = true
	}
	for _, in := range []*explore.CorpusState{a, b, c} {
		for _, e := range in.Entries {
			if !sigs[e.Signature] {
				t.Fatalf("merged corpus lost signature %s", e.Signature)
			}
		}
	}
}

// TestMergeRefusals: the failure modes merging exists to catch are refused
// loudly — mismatched fingerprints, double-counted seeds, overlapping grid
// slices, future schema versions.
func TestMergeRefusals(t *testing.T) {
	mkExplore := func(seed int64, fp string) Input {
		return Input{Name: "r", Explore: &cliutil.ExploreReport{
			SchemaVersion: cliutil.ReportSchemaVersion, SpaceFingerprint: fp,
			Report: explore.Report{Proto: "consensus", N: 4, Seed: seed, Budget: 1, Runs: 1, Novel: 0},
		}}
	}
	if _, err := MergeReports([]Input{mkExplore(1, "fpA"), mkExplore(2, "fpB")}); err == nil || !strings.Contains(err.Error(), "fingerprint mismatch") {
		t.Fatalf("fingerprint mismatch: err=%v", err)
	}
	if _, err := MergeReports([]Input{mkExplore(1, "fp"), mkExplore(1, "fp")}); err == nil || !strings.Contains(err.Error(), "seed 1") {
		t.Fatalf("duplicate seed: err=%v", err)
	}

	mkSweep := func(lo, hi int) Input {
		return Input{Name: "r", Sweep: &cliutil.SweepReport{
			SchemaVersion: cliutil.ReportSchemaVersion, GridFingerprint: "fp",
			Proto: "consensus", N: 4, GridSize: 10, IndexLo: lo, IndexHi: hi,
			Runs: hi - lo, Passed: hi - lo,
		}}
	}
	if _, err := MergeReports([]Input{mkSweep(0, 6), mkSweep(4, 10)}); err == nil || !strings.Contains(err.Error(), "overlap") {
		t.Fatalf("overlapping ranges: err=%v", err)
	}
	m, err := MergeReports([]Input{mkSweep(0, 6), mkSweep(6, 10)})
	if err != nil {
		t.Fatalf("tiling merge: %v", err)
	}
	if !m.Sweep.Complete || m.Sweep.Runs != 10 {
		t.Fatalf("tiled merge: complete=%t runs=%d", m.Sweep.Complete, m.Sweep.Runs)
	}

	if _, err := ReadInput("r", []byte(`{"schema_version":99,"budget":1}`)); err == nil || !strings.Contains(err.Error(), "newer") {
		t.Fatalf("future schema version: err=%v", err)
	}
}

// TestSweepCampaign: a sharded sweep campaign tiles the grid exactly once
// and its merged counts equal a direct in-process sweep of the same grid.
func TestSweepCampaign(t *testing.T) {
	grid := &cliutil.GridSpec{
		Proto: "consensus", N: 4, Rounds: 2, Seeds: "1-8",
		Crashes: "-;3@5ms", Timeout: "30s", Keep: 2,
	}
	dir := t.TempDir()
	m := &Manifest{Name: "sweepcamp", Kind: KindSweep, Units: 4, Shards: 2, Grid: grid}
	if err := Plan(dir, m); err != nil {
		t.Fatalf("plan: %v", err)
	}
	runShardOK(t, dir, 1)
	runShardOK(t, dir, 2)
	merged, err := MergeDir(dir)
	if err != nil {
		t.Fatalf("merge: %v", err)
	}
	s := merged.Sweep
	if s == nil || !s.Complete {
		t.Fatalf("merged sweep incomplete: %+v", s)
	}

	base, g, proto, err := cliutil.BuildGrid(*grid)
	if err != nil {
		t.Fatalf("build grid: %v", err)
	}
	direct := scenario.Sweep(context.Background(), base, g, proto)
	if s.Runs != direct.Runs || s.Passed != direct.Passed || s.Faulted != direct.Faulted {
		t.Fatalf("merged counts %d/%d/%d diverge from direct sweep %d/%d/%d",
			s.Runs, s.Passed, s.Faulted, direct.Runs, direct.Passed, direct.Faulted)
	}
	if s.GridSize != direct.GridSize {
		t.Fatalf("grid size %d vs %d", s.GridSize, direct.GridSize)
	}
}
