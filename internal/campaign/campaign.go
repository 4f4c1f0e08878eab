// Package campaign composes many sweep or explore invocations — across
// processes, machines or CI jobs — into one named, on-disk, resumable
// logical campaign, and folds their reports back into one campaign report.
//
// A campaign divides its work into Units, the atoms of progress: for a
// sweep campaign, unit i of U is the contiguous grid slice
// [i·size/U, (i+1)·size/U) (the same exact-once tiling as scenario.Shard);
// for an explore campaign, unit i is one full exploration seeded with
// base seed + i. Shard k of S owns the contiguous unit range
// [(k−1)·U/S, k·U/S) and executes its units in order, writing one canonical
// report file per unit (atomic rename) and advancing a per-shard watermark
// only after the unit's report is durably on disk. A shard killed mid-unit
// therefore loses at most the unit in flight: resume re-issues exactly the
// units past the watermark, adopting an already-written report when the
// crash fell between the report rename and the watermark update — exact-once
// output either way.
//
// The determinism contract, campaign side: every unit report is a pure
// function of (campaign fingerprint, unit index) — timing fields are left
// zero — so the merged campaign report is a pure function of (fingerprint,
// seed set), independent of shard count, interleaving, kill points and
// resume points. The 1-shard-vs-killed-and-resumed-3-shard byte-identity
// test pins exactly this.
package campaign

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"weakestfd/internal/cliutil"
	"weakestfd/internal/explore"
	"weakestfd/internal/scenario"
)

// ManifestVersion is the schema version of campaign artifacts (manifest,
// shard states); loaders reject newer versions.
const ManifestVersion = 1

// Kind selects the campaign's work type.
type Kind string

const (
	KindSweep   Kind = "sweep"
	KindExplore Kind = "explore"
)

// ExploreSpec is the work description of an explore campaign and of one
// cmd/explore invocation: the cmd/explore surface minus runtime detail
// (workers, wall budget, corpus and frontier files, progress). Unit i of a
// campaign explores at Seed + i. Specs from a user (cmd/explore's flags,
// campaign plan -explore files) start from DefaultExploreSpec; a spec
// stored in a manifest is read as written, except that empty Classes,
// Delays and Timeout read as DefaultExploreSpec's.
type ExploreSpec struct {
	Proto       string `json:"proto"`
	N           int    `json:"n"`
	Rounds      int    `json:"rounds,omitempty"`
	Coordinator int    `json:"coordinator,omitempty"`
	// Seed is the campaign's base seed: unit i runs at Seed + i.
	Seed int64 `json:"seed"`
	// Runs is the exploration budget per unit.
	Runs        int    `json:"runs"`
	Batch       int    `json:"batch,omitempty"`
	Classes     string `json:"classes,omitempty"`
	Crashes     string `json:"crashes,omitempty"`
	Delays      string `json:"delays,omitempty"`
	Timeout     string `json:"timeout,omitempty"`
	SafetyOnly  bool   `json:"safety_only,omitempty"`
	Minimize    int    `json:"minimize"`
	DepthSignal bool   `json:"depth_signal,omitempty"`
	TraceSignal bool   `json:"trace_signal,omitempty"`
}

// DefaultExploreSpec is the one default table of explore specs: cmd/explore's
// flag defaults and the base every campaign plan -explore file is read over.
func DefaultExploreSpec() ExploreSpec {
	return ExploreSpec{Proto: "consensus", N: 5, Rounds: 8, Seed: 1, Runs: 256, Minimize: 3,
		Classes: "omega-sigma,perfect,eventually-perfect{stabilize:50},eventually-strong{stabilize:50}",
		Delays:  "1ms:3ms", Timeout: "250ms"}
}

// Options builds the explore options of the exploration at seed: the one
// translation of an explore spec into runs, shared by cmd/explore and
// campaign units. Workers, OnRun and the other runtime detail are the
// caller's to set afterwards; they do not affect the result.
func (sp ExploreSpec) Options(seed int64) (explore.Options, error) {
	var opts explore.Options
	if sp.N <= 0 {
		return opts, fmt.Errorf("explore spec: invalid process count %d", sp.N)
	}
	if sp.Runs <= 0 {
		return opts, fmt.Errorf("explore spec: runs must be positive, got %d", sp.Runs)
	}
	proto, err := cliutil.BuildProtocol(sp.Proto, sp.N, sp.Rounds, sp.Coordinator)
	if err != nil {
		return opts, err
	}
	def := DefaultExploreSpec()
	orDefault := func(v, d string) string {
		if strings.TrimSpace(v) == "" {
			return d
		}
		return v
	}
	alphabet, err := cliutil.ParseDetectors(orDefault(sp.Classes, def.Classes))
	if err != nil {
		return opts, fmt.Errorf("explore spec: classes: %v", err)
	}
	delays := orDefault(sp.Delays, def.Delays)
	delayRanges, err := cliutil.ParseDelays(delays)
	if err != nil || len(delayRanges) != 1 {
		return opts, fmt.Errorf("explore spec: delays: want exactly one min:max range (got %q)", delays)
	}
	timeout, err := cliutil.ParseTimeout(orDefault(sp.Timeout, def.Timeout))
	if err != nil {
		return opts, fmt.Errorf("explore spec: timeout: %v", err)
	}
	schedules, err := cliutil.ParseCrashes(sp.Crashes, sp.N)
	if err != nil {
		return opts, fmt.Errorf("explore spec: crashes: %v", err)
	}
	if len(schedules) > 1 {
		return opts, fmt.Errorf("explore spec: the base takes one crash schedule, not %d (the mutators explore variants)", len(schedules))
	}
	baseOpts := []scenario.Option{
		scenario.WithSeed(seed),
		scenario.WithDelays(delayRanges[0].Min, delayRanges[0].Max),
		scenario.WithTimeout(timeout),
	}
	if len(schedules) == 1 {
		baseOpts = append(baseOpts, scenario.WithCrashes(schedules[0]...))
	}
	if sp.SafetyOnly {
		baseOpts = append(baseOpts, scenario.WithSafetyOnly())
	}
	return explore.Options{
		Seed:          seed,
		Runs:          sp.Runs,
		Batch:         sp.Batch,
		Proto:         proto,
		Base:          scenario.New(sp.N, baseOpts...).Config(),
		Classes:       alphabet,
		MinimizeLimit: sp.Minimize,
		DepthSignal:   sp.DepthSignal,
		TraceSignal:   sp.TraceSignal,
	}, nil
}

// Manifest is a campaign's immutable plan: what the work is, how it is cut
// into units, how units are assigned to shards, and the fingerprint every
// artifact of the campaign must carry. It is written once by Plan and never
// modified; all mutable progress lives in per-shard state files, so
// concurrent shards never write one shared file.
type Manifest struct {
	SchemaVersion int    `json:"schema_version"`
	Name          string `json:"name"`
	Kind          Kind   `json:"kind"`
	// Fingerprint identifies the campaign's search space: the grid
	// fingerprint (cliutil.GridFingerprint) for a sweep campaign, the
	// space fingerprint (cliutil.ExploreFingerprint) for an explore one.
	Fingerprint string `json:"fingerprint"`
	// Units is the number of work units; Shards how many contiguous unit
	// ranges they are assigned to (shard k of S owns units
	// [(k−1)·U/S, k·U/S), 1-based k — scenario.Shard's tiling).
	Units  int `json:"units"`
	Shards int `json:"shards"`
	// Exactly one of Grid and Explore is set, matching Kind. It holds the
	// resolved spec, defaults filled in when it was planned: a stored
	// manifest is never read over a later build's defaults.
	Grid    *cliutil.GridSpec `json:"grid,omitempty"`
	Explore *ExploreSpec      `json:"explore,omitempty"`
}

// UnitRange returns the half-open unit range [lo, hi) shard k (1-based)
// owns.
func (m *Manifest) UnitRange(k int) (lo, hi int, err error) {
	if k < 1 || k > m.Shards {
		return 0, 0, fmt.Errorf("campaign %s: shard %d out of range 1..%d", m.Name, k, m.Shards)
	}
	lo, hi = scenario.Shard{Index: k, Count: m.Shards}.Bounds(m.Units)
	return lo, hi, nil
}

// UnitSeed returns the master seed of explore unit u.
func (m *Manifest) UnitSeed(u int) int64 { return m.Explore.Seed + int64(u) }

// validate checks the manifest's internal consistency and computes its
// fingerprint from the work description.
func (m *Manifest) validate() error {
	if m.Name == "" || m.Name != filepath.Base(m.Name) || strings.HasPrefix(m.Name, ".") {
		return fmt.Errorf("campaign: invalid name %q", m.Name)
	}
	if m.Units <= 0 {
		return fmt.Errorf("campaign %s: units must be positive, got %d", m.Name, m.Units)
	}
	if m.Shards <= 0 || m.Shards > m.Units {
		return fmt.Errorf("campaign %s: shards must be in 1..units(%d), got %d", m.Name, m.Units, m.Shards)
	}
	switch m.Kind {
	case KindSweep:
		if m.Grid == nil || m.Explore != nil {
			return fmt.Errorf("campaign %s: kind sweep needs exactly the grid spec", m.Name)
		}
		if strings.TrimSpace(m.Grid.Shard) != "" {
			return fmt.Errorf("campaign %s: the grid spec must not set shard %q — sharding is the campaign layer's job", m.Name, m.Grid.Shard)
		}
		base, grid, proto, err := cliutil.BuildGrid(*m.Grid)
		if err != nil {
			return fmt.Errorf("campaign %s: grid: %w", m.Name, err)
		}
		if grid.Size() < m.Units {
			return fmt.Errorf("campaign %s: %d units over a grid of %d runs leaves empty units", m.Name, m.Units, grid.Size())
		}
		m.Fingerprint = cliutil.GridFingerprint(base, grid, proto)
	case KindExplore:
		if m.Explore == nil || m.Grid != nil {
			return fmt.Errorf("campaign %s: kind explore needs exactly the explore spec", m.Name)
		}
		opts, err := m.Explore.Options(m.Explore.Seed)
		if err != nil {
			return fmt.Errorf("campaign %s: %w", m.Name, err)
		}
		m.Fingerprint = cliutil.ExploreFingerprint(opts)
	default:
		return fmt.Errorf("campaign %s: unknown kind %q", m.Name, m.Kind)
	}
	return nil
}

// Artifact paths within a campaign directory.
func manifestPath(dir string) string { return filepath.Join(dir, "manifest.json") }
func shardPath(dir string, k int) string {
	return filepath.Join(dir, fmt.Sprintf("shard-%d.state.json", k))
}

// UnitReportPath returns the report file of unit u in the campaign dir.
func UnitReportPath(dir string, u int) string {
	return filepath.Join(dir, fmt.Sprintf("unit-%06d.report.json", u))
}

// Plan validates the manifest, stamps its version and fingerprint, and
// writes it into dir (created if missing). Planning is idempotent: an
// existing manifest that renders to identical bytes is accepted, any other
// existing manifest is refused — a campaign's plan is immutable.
func Plan(dir string, m *Manifest) error {
	m.SchemaVersion = ManifestVersion
	if err := m.validate(); err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("campaign %s: %w", m.Name, err)
	}
	data, err := marshalJSON(m)
	if err != nil {
		return fmt.Errorf("campaign %s: %w", m.Name, err)
	}
	if old, err := os.ReadFile(manifestPath(dir)); err == nil {
		if string(old) == string(data) {
			return nil
		}
		return fmt.Errorf("campaign %s: %s already holds a different plan; campaigns are immutable once planned", m.Name, manifestPath(dir))
	}
	return cliutil.WriteFileAtomic(manifestPath(dir), data)
}

// LoadManifest reads and validates dir's manifest.
func LoadManifest(dir string) (*Manifest, error) {
	data, err := os.ReadFile(manifestPath(dir))
	if err != nil {
		return nil, fmt.Errorf("campaign: %w (plan first?)", err)
	}
	var m Manifest
	if err := unmarshalJSON(data, &m); err != nil {
		return nil, fmt.Errorf("campaign: parse %s: %w", manifestPath(dir), err)
	}
	if m.SchemaVersion > ManifestVersion {
		return nil, fmt.Errorf("campaign %s: manifest schema_version %d is newer than this build understands (%d)", m.Name, m.SchemaVersion, ManifestVersion)
	}
	want := m.Fingerprint
	if err := m.validate(); err != nil {
		return nil, err
	}
	if m.Fingerprint != want {
		return nil, fmt.Errorf("campaign %s: stored fingerprint does not match the work description:\n  stored:   %s\n  computed: %s", m.Name, want, m.Fingerprint)
	}
	return &m, nil
}

// marshalJSON renders v as indented JSON with a trailing newline, the
// committed-snapshot style shared by every artifact.
func marshalJSON(v any) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// unmarshalJSON is strict-enough JSON parsing for campaign artifacts.
func unmarshalJSON(data []byte, v any) error {
	return json.Unmarshal(data, v)
}
