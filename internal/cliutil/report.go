package cliutil

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"

	"weakestfd/internal/explore"
	"weakestfd/internal/probe"
	"weakestfd/internal/scenario"
)

// Shared report I/O: cmd/sweep, cmd/explore and the campaign layer all emit
// and ingest the same JSON artifacts. The structs live
// here, exactly once, so a report written by any driver is readable by every
// other — campaign unit reports are these very shapes with the campaign
// provenance fields filled in and the wall-clock fields left zero.

// ReportSchemaVersion is the version stamped into every report this build
// writes. Loaders reject reports stamped with a *newer* version — the fields
// they would silently drop or misread are exactly the ones a newer writer
// added — and accept older ones (absent fields keep zero values).
const ReportSchemaVersion = 1

// CheckReportVersion rejects a schema version from the future.
func CheckReportVersion(kind string, v int) error {
	if v > ReportSchemaVersion {
		return fmt.Errorf("%s: schema_version %d is newer than this build understands (%d); rebuild or use a newer binary", kind, v, ReportSchemaVersion)
	}
	return nil
}

// SweepReport is the JSON artifact of one grid sweep — cmd/sweep's output
// and the campaign sweep-unit report. GeneratedBy, GoVersion, ElapsedMS and
// RunsPerSec are wall-clock provenance, excluded from deterministic
// comparisons and left empty in campaign unit reports.
type SweepReport struct {
	SchemaVersion int    `json:"schema_version"`
	GeneratedBy   string `json:"generated_by,omitempty"`
	GoVersion     string `json:"go_version,omitempty"`
	// Campaign and Unit identify a campaign unit report; empty/absent for a
	// standalone cmd/sweep invocation.
	Campaign string `json:"campaign,omitempty"`
	Unit     *int   `json:"unit,omitempty"`
	// GridFingerprint is scenario.Grid.Fingerprint over the base config:
	// the identity campaign merge requires to agree across inputs.
	GridFingerprint string           `json:"grid_fingerprint,omitempty"`
	Proto           string           `json:"proto"`
	N               int              `json:"n"`
	GridSize        int              `json:"grid_size"`
	Shard           string           `json:"shard,omitempty"`
	IndexLo         int              `json:"index_lo"`
	IndexHi         int              `json:"index_hi"`
	Runs            int              `json:"runs"`
	Passed          int              `json:"passed"`
	Faulted         int              `json:"faulted"`
	Cancelled       int              `json:"cancelled"`
	ElapsedMS       float64          `json:"elapsed_ms,omitempty"`
	RunsPerSec      float64          `json:"runs_per_sec,omitempty"`
	Detectors       []DetectorReport `json:"detectors,omitempty"`
	// Probes is the sweep-wide probe aggregate (-probes): mergeable
	// histograms of per-run message cost, decision latency and detection
	// latency, byte-stable per (grid, shard) and summed across shards by
	// campaign merge.
	Probes    *probe.Agg       `json:"probes,omitempty"`
	Failures  []FailureReport  `json:"failures,omitempty"`
	Minimized *MinimizedReport `json:"minimized,omitempty"`
}

// DetectorReport is one detector spec's share of a sweep — the per-class
// pass/fail column of the cross-detector comparison the -detectors axis runs.
type DetectorReport struct {
	Spec      string `json:"spec"`
	Runs      int    `json:"runs"`
	Passed    int    `json:"passed"`
	Faulted   int    `json:"faulted"`
	Cancelled int    `json:"cancelled"`
	// Probes is the spec's probe aggregate (-probes): the per-class
	// detection-latency vs message-cost comparison column.
	Probes *probe.Agg `json:"probes,omitempty"`
}

// FailureReport pins one failing grid point: its global row-major index (the
// stable coordinate for re-running it on any shard layout), the violations,
// the outcome fingerprint and the exact Config to reproduce it in isolation.
type FailureReport struct {
	Index       int             `json:"index"`
	Violations  []string        `json:"violations"`
	Fingerprint string          `json:"fingerprint"`
	Config      scenario.Config `json:"config"`
}

// MinimizedReport is the delta-debugged reproducer of the first retained
// failure.
type MinimizedReport struct {
	FromIndex   int             `json:"from_index"`
	Candidates  int             `json:"candidates"`
	Violations  []string        `json:"violations"`
	Fingerprint string          `json:"fingerprint"`
	Config      scenario.Config `json:"config"`
}

// ExploreReport is the JSON artifact of one exploration — cmd/explore's
// output and the campaign explore-unit report. It carries the full corpus
// state (corpus + behaviours + failure_sigs), so any explore report doubles
// as a loadable seed corpus.
type ExploreReport struct {
	SchemaVersion int    `json:"schema_version"`
	GeneratedBy   string `json:"generated_by,omitempty"`
	GoVersion     string `json:"go_version,omitempty"`
	Campaign      string `json:"campaign,omitempty"`
	Unit          *int   `json:"unit,omitempty"`
	// SpaceFingerprint is explore.SpaceFingerprint of the exploration's
	// options: everything that shapes the search except the seed, so
	// differently-seeded units of one campaign share it.
	SpaceFingerprint string  `json:"space_fingerprint,omitempty"`
	Proto            string  `json:"proto"`
	N                int     `json:"n"`
	Seed             int64   `json:"seed"`
	Budget           int     `json:"budget"`
	Runs             int     `json:"runs"`
	Novel            int     `json:"novel"`
	Duplicates       int     `json:"duplicates"`
	Cancelled        int     `json:"cancelled,omitempty"`
	FirstFail        int     `json:"first_failure_run,omitempty"`
	ElapsedMS        float64 `json:"elapsed_ms,omitempty"`
	RunsPerSec       float64 `json:"explore_runs_per_sec,omitempty"`

	Corpus             []explore.Entry            `json:"corpus,omitempty"`
	Behaviours         []string                   `json:"behaviours,omitempty"`
	FailureSigs        []string                   `json:"failure_sigs,omitempty"`
	Mutators           []*explore.MutatorStat     `json:"mutators,omitempty"`
	Failures           []explore.Failure          `json:"failures,omitempty"`
	Minimized          []explore.MinimizedFailure `json:"minimized,omitempty"`
	MinimizeCandidates int                        `json:"minimize_candidates,omitempty"`
	Frontier           []explore.Boundary         `json:"frontier,omitempty"`
	FrontierRuns       int                        `json:"frontier_runs,omitempty"`
}

// NewExploreReport renders a finished exploration under opts as its
// report's deterministic fields: the one builder cmd/explore and campaign
// explore units share. Callers add provenance (generated_by and timing, or
// the campaign unit).
func NewExploreReport(opts explore.Options, rep *explore.Report) ExploreReport {
	return ExploreReport{
		SchemaVersion:      ReportSchemaVersion,
		SpaceFingerprint:   ExploreFingerprint(opts),
		Proto:              rep.Proto,
		N:                  rep.N,
		Seed:               rep.Seed,
		Budget:             rep.Budget,
		Runs:               rep.Runs,
		Novel:              rep.Novel,
		Duplicates:         rep.Duplicates,
		Cancelled:          rep.Cancelled,
		FirstFail:          rep.FirstFailureRun,
		Corpus:             rep.Corpus,
		Behaviours:         rep.Behaviours,
		FailureSigs:        rep.FailureSigs,
		Mutators:           rep.Mutators,
		Failures:           rep.Failures,
		Minimized:          rep.Minimized,
		MinimizeCandidates: rep.MinimizeCandidates,
	}
}

// CorpusState extracts the report's corpus state — the seedable form.
func (r *ExploreReport) CorpusState() *explore.CorpusState {
	return &explore.CorpusState{
		SchemaVersion: explore.CorpusVersion,
		Entries:       r.Corpus,
		Behaviours:    r.Behaviours,
		FailureSigs:   r.FailureSigs,
	}
}

// WriteJSON marshals v as indented JSON with a trailing newline — the
// committed-snapshot style of every report — to path, or to stdout when
// path is empty. File writes go through a same-directory temp file and
// rename, so a crash mid-write never leaves a half-written artifact where a
// resume would trust one.
func WriteJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return fmt.Errorf("marshal: %w", err)
	}
	data = append(data, '\n')
	if path == "" {
		_, err := os.Stdout.Write(data)
		return err
	}
	return WriteFileAtomic(path, data)
}

// ReadSpec strictly decodes the JSON spec file at path into v, a pointer to
// a spec struct — the one loader of the CLIs' spec files (sweep -grid,
// campaign plan -grid and -explore). An unknown key, a key in another letter
// case than its field's json tag, and anything after the first JSON value
// are errors, so a typo or a second document is refused, never silently
// dropped or read as some other spelling.
func ReadSpec(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("parse %s: %v", path, err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return fmt.Errorf("parse %s: trailing data after the spec", path)
	}
	if key, ok := unspelledKey(data, v); ok {
		return fmt.Errorf("parse %s: unknown field %q (field names are case-sensitive)", path, key)
	}
	return nil
}

// unspelledKey returns the first key, in sorted order, of the JSON object
// data that is not spelled exactly as a json tag of the struct v points to.
// encoding/json matches keys to fields case-insensitively, and
// DisallowUnknownFields refuses only keys that match no field at all.
func unspelledKey(data []byte, v any) (string, bool) {
	var obj map[string]json.RawMessage
	if json.Unmarshal(data, &obj) != nil {
		return "", false
	}
	typ := reflect.TypeOf(v).Elem()
	tags := make(map[string]bool, typ.NumField())
	for i := range typ.NumField() {
		f := typ.Field(i)
		name, _, _ := strings.Cut(f.Tag.Get("json"), ",")
		if name == "" {
			name = f.Name
		}
		tags[name] = true
	}
	for _, key := range slices.Sorted(maps.Keys(obj)) {
		if !tags[key] {
			return key, true
		}
	}
	return "", false
}

// WriteFileAtomic writes data to path via a same-directory temp file and
// rename: readers see either the old contents or the new, never a prefix.
func WriteFileAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, "."+filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	name := tmp.Name()
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(name)
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(name)
		return err
	}
	if err := os.Chmod(name, 0o644); err != nil {
		os.Remove(name)
		return err
	}
	if err := os.Rename(name, path); err != nil {
		os.Remove(name)
		return err
	}
	return nil
}

// reportSniff distinguishes the two report kinds and surfaces the version.
type reportSniff struct {
	SchemaVersion int  `json:"schema_version"`
	GridSize      *int `json:"grid_size"`
	Budget        *int `json:"budget"`
}

// ReadAnyReport parses data as either report kind (exactly one of the
// returns is non-nil on success), rejecting future schema versions. kind
// names the source in errors.
func ReadAnyReport(kind string, data []byte) (*SweepReport, *ExploreReport, error) {
	var sniff reportSniff
	if err := json.Unmarshal(data, &sniff); err != nil {
		return nil, nil, fmt.Errorf("%s: parse: %w", kind, err)
	}
	if err := CheckReportVersion(kind, sniff.SchemaVersion); err != nil {
		return nil, nil, err
	}
	switch {
	case sniff.GridSize != nil:
		var r SweepReport
		if err := json.Unmarshal(data, &r); err != nil {
			return nil, nil, fmt.Errorf("%s: parse sweep report: %w", kind, err)
		}
		// The probe blocks version independently of the report envelope —
		// gate them the same way, so a report written by a newer probe
		// schema is refused rather than silently misaggregated.
		if err := r.Probes.CheckVersion(kind); err != nil {
			return nil, nil, err
		}
		for i := range r.Detectors {
			if err := r.Detectors[i].Probes.CheckVersion(kind); err != nil {
				return nil, nil, err
			}
		}
		return &r, nil, nil
	case sniff.Budget != nil:
		var r ExploreReport
		if err := json.Unmarshal(data, &r); err != nil {
			return nil, nil, fmt.Errorf("%s: parse explore report: %w", kind, err)
		}
		return nil, &r, nil
	default:
		return nil, nil, fmt.Errorf("%s: neither a sweep report (no grid_size) nor an explore report (no budget)", kind)
	}
}

// GridSpec is the complete description of one grid sweep: every field maps
// 1:1 onto a cmd/sweep flag and onto a key of its -grid JSON file, and a
// campaign manifest embeds one verbatim as the sweep work description.
// SchemaVersion is optional in hand-written files (0 reads as "current").
// Specs from a user (flags, -grid files) start from DefaultGridSpec; a
// spec stored in a manifest is read as written. An empty Timeout keeps the
// scenario's default backstop.
type GridSpec struct {
	SchemaVersion int     `json:"schema_version,omitempty"`
	Proto         string  `json:"proto"`
	N             int     `json:"n"`
	Rounds        int     `json:"rounds"`
	Coordinator   int     `json:"coordinator"`
	Seeds         string  `json:"seeds"`
	Detectors     string  `json:"detectors"`
	Delays        string  `json:"delays"`
	Crashes       string  `json:"crashes"`
	Drop          float64 `json:"drop"`
	SafetyOnly    bool    `json:"safety_only"`
	Timeout       string  `json:"timeout"`
	Shard         string  `json:"shard"`
	Workers       int     `json:"workers"`
	Keep          int     `json:"keep"`
	Probes        bool    `json:"probes,omitempty"`
}

// DefaultGridSpec is the one default table of grid specs: cmd/sweep's flag
// defaults and the base every -grid file is read over, by cmd/sweep and
// campaign plan alike.
func DefaultGridSpec() GridSpec {
	return GridSpec{Proto: "consensus", N: 5, Rounds: 8, Seeds: "1-16", Timeout: "30s", Keep: 8}
}

// BuildGrid turns the spec into the Sweep inputs: the base scenario, the
// grid and the protocol descriptor. The single definition both cmd/sweep
// and campaign sweep units build through, so a grid fingerprint computed by
// one is valid for the other.
func BuildGrid(sp GridSpec) (*scenario.Scenario, scenario.Grid, scenario.Protocol, error) {
	var grid scenario.Grid
	if err := CheckReportVersion("grid spec", sp.SchemaVersion); err != nil {
		return nil, grid, nil, err
	}
	if sp.N <= 0 {
		return nil, grid, nil, fmt.Errorf("invalid process count %d", sp.N)
	}
	p, err := BuildProtocol(sp.Proto, sp.N, sp.Rounds, sp.Coordinator)
	if err != nil {
		return nil, grid, nil, err
	}
	// A rate outside [0, 1] panics the network mid-sweep, NaN runs as 0 under
	// a second fingerprint, and -0 + 0 is the one spelling of 0.
	if !(sp.Drop >= 0 && sp.Drop <= 1) {
		return nil, grid, nil, fmt.Errorf("drop: rate %v outside [0, 1]", sp.Drop)
	}
	opts := []scenario.Option{scenario.WithDropRate(sp.Drop + 0)}
	if sp.Timeout != "" {
		timeout, err := ParseTimeout(sp.Timeout)
		if err != nil {
			return nil, grid, nil, fmt.Errorf("timeout: %v", err)
		}
		opts = append(opts, scenario.WithTimeout(timeout))
	}
	if sp.SafetyOnly {
		opts = append(opts, scenario.WithSafetyOnly())
	}
	base := scenario.New(sp.N, opts...)

	if grid.Seeds, grid.SeedSpan, err = ParseSeeds(sp.Seeds); err != nil {
		return nil, grid, nil, fmt.Errorf("seeds: %v", err)
	}
	if strings.TrimSpace(sp.Detectors) != "" {
		if grid.Detectors, err = ParseDetectors(sp.Detectors); err != nil {
			return nil, grid, nil, fmt.Errorf("detectors: %v", err)
		}
	}
	if grid.Delays, err = ParseDelays(sp.Delays); err != nil {
		return nil, grid, nil, fmt.Errorf("delays: %v", err)
	}
	if grid.Crashes, err = ParseCrashes(sp.Crashes, sp.N); err != nil {
		return nil, grid, nil, fmt.Errorf("crashes: %v", err)
	}
	if grid.Shard, err = ParseShard(sp.Shard); err != nil {
		return nil, grid, nil, fmt.Errorf("shard: %v", err)
	}
	grid.Workers = sp.Workers
	grid.Probes = sp.Probes
	grid.KeepFailures = sp.Keep
	return base, grid, p, nil
}

// NewSweepReport renders a finished sweep of sp — built by BuildGrid into
// base, grid and p — as its report's deterministic fields: the one builder
// cmd/sweep and campaign sweep units share. Callers add provenance
// (generated_by and timing, or the campaign unit) and the minimised
// reproducer.
func NewSweepReport(sp GridSpec, base *scenario.Scenario, grid scenario.Grid, p scenario.Protocol, res scenario.SweepResult) SweepReport {
	rep := SweepReport{
		SchemaVersion:   ReportSchemaVersion,
		GridFingerprint: GridFingerprint(base, grid, p),
		Proto:           p.Name(),
		N:               sp.N,
		GridSize:        res.GridSize,
		Shard:           sp.Shard,
		IndexLo:         res.IndexLo,
		IndexHi:         res.IndexHi,
		Runs:            res.Runs,
		Passed:          res.Passed,
		Faulted:         res.Faulted,
		Cancelled:       res.Cancelled,
		Probes:          res.Probes,
	}
	for _, d := range res.Detectors {
		rep.Detectors = append(rep.Detectors, DetectorReport(d))
	}
	for i, f := range res.Failures {
		rep.Failures = append(rep.Failures, FailureReport{
			Index:       res.FailureIndices[i],
			Violations:  f.Verdict.Violations,
			Fingerprint: f.Fingerprint(),
			Config:      f.Config,
		})
	}
	return rep
}
