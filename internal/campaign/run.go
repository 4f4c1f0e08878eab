package campaign

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"

	"weakestfd/internal/cliutil"
	"weakestfd/internal/explore"
	"weakestfd/internal/scenario"
)

// ShardState is one shard's mutable progress: the watermark of contiguous
// completed units and the digest of each completed unit's report file. Each
// shard owns exactly one state file (shard-<k>.state.json), so concurrent
// shards never contend on shared mutable state; the manifest stays
// immutable. The watermark advances only after the unit's report has been
// atomically renamed into place — the exact-once invariant: units at or
// past the watermark boundary either have a durable, digest-recorded report
// or will be (re-)issued by resume, never both.
type ShardState struct {
	SchemaVersion int    `json:"schema_version"`
	Campaign      string `json:"campaign"`
	Fingerprint   string `json:"fingerprint"`
	Shard         int    `json:"shard"`
	// UnitLo and UnitHi bound the half-open unit range this shard owns.
	UnitLo int `json:"unit_lo"`
	UnitHi int `json:"unit_hi"`
	// Watermark counts leading completed units: units
	// [UnitLo, UnitLo+Watermark) are done and digest-recorded.
	Watermark int `json:"watermark"`
	// Digests holds the sha256 of each completed unit report, aligned with
	// UnitLo+i.
	Digests []string `json:"digests,omitempty"`
}

// Done reports whether every unit of the shard's range is complete.
func (s *ShardState) Done() bool { return s.Watermark >= s.UnitHi-s.UnitLo }

// loadShardState reads shard k's state, or initialises a fresh one when no
// state file exists yet. The state must belong to this manifest.
func loadShardState(dir string, m *Manifest, k int) (*ShardState, error) {
	lo, hi, err := m.UnitRange(k)
	if err != nil {
		return nil, err
	}
	data, err := os.ReadFile(shardPath(dir, k))
	if os.IsNotExist(err) {
		return &ShardState{
			SchemaVersion: ManifestVersion,
			Campaign:      m.Name,
			Fingerprint:   m.Fingerprint,
			Shard:         k,
			UnitLo:        lo,
			UnitHi:        hi,
		}, nil
	}
	if err != nil {
		return nil, fmt.Errorf("campaign %s: %w", m.Name, err)
	}
	var st ShardState
	if err := unmarshalJSON(data, &st); err != nil {
		return nil, fmt.Errorf("campaign %s: parse %s: %w", m.Name, shardPath(dir, k), err)
	}
	if st.SchemaVersion > ManifestVersion {
		return nil, fmt.Errorf("campaign %s: shard state schema_version %d is newer than this build understands (%d)", m.Name, st.SchemaVersion, ManifestVersion)
	}
	if st.Fingerprint != m.Fingerprint || st.Campaign != m.Name || st.Shard != k || st.UnitLo != lo || st.UnitHi != hi {
		return nil, fmt.Errorf("campaign %s: shard state %s does not belong to this manifest (stale or foreign state)", m.Name, shardPath(dir, k))
	}
	if st.Watermark < 0 || st.Watermark > hi-lo || len(st.Digests) != st.Watermark {
		return nil, fmt.Errorf("campaign %s: shard state %s is corrupt (watermark %d, %d digests over %d units)", m.Name, shardPath(dir, k), st.Watermark, len(st.Digests), hi-lo)
	}
	return &st, nil
}

// ShardStates loads every shard's state (fresh zero-watermark states for
// shards that have not started).
func ShardStates(dir string, m *Manifest) ([]*ShardState, error) {
	out := make([]*ShardState, 0, m.Shards)
	for k := 1; k <= m.Shards; k++ {
		st, err := loadShardState(dir, m, k)
		if err != nil {
			return nil, err
		}
		out = append(out, st)
	}
	return out, nil
}

// save writes the state atomically.
func (s *ShardState) save(dir string) error {
	data, err := marshalJSON(s)
	if err != nil {
		return err
	}
	return cliutil.WriteFileAtomic(shardPath(dir, s.Shard), data)
}

// RunOptions configures one shard execution. None of it affects unit
// results — workers parallelise within a unit, the log only narrates, and
// journal dumps are separate files beside the unit reports (unit report
// bytes stay a pure function of the campaign fingerprint and unit index,
// journaled or not).
type RunOptions struct {
	Dir     string
	Shard   int
	Workers int
	Log     io.Writer // nil = silent
	// JournalDir, when non-empty, dumps a full trace journal for every
	// failure a completed unit retained (cmd/replay replays them). Dumps
	// re-run the failing config with capture on — deterministic, so the
	// journal records the retained failure's exact schedule.
	JournalDir string
	// OnUnit, when non-nil, is called after every completed (or adopted)
	// unit with the shard's cumulative done count and its unit total — the
	// hook cmd/campaign's -progress emitter snapshots. Called from the
	// shard loop goroutine, between units.
	OnUnit func(done, total int)
}

// RunShard executes (or resumes — the operation is the same) the pending
// units of one shard, in unit order, checkpointing after every unit. It
// returns the units completed across all invocations and the shard's unit
// total. Cancelling ctx stops between runs; the unit in flight is abandoned
// unreported and will be re-issued by the next invocation, byte-identically
// (unit reports are pure functions of the campaign fingerprint and unit
// index).
func RunShard(ctx context.Context, opts RunOptions) (done, total int, err error) {
	m, err := LoadManifest(opts.Dir)
	if err != nil {
		return 0, 0, err
	}
	st, err := loadShardState(opts.Dir, m, opts.Shard)
	if err != nil {
		return 0, 0, err
	}
	total = st.UnitHi - st.UnitLo
	logf := func(format string, args ...any) {
		if opts.Log != nil {
			fmt.Fprintf(opts.Log, format+"\n", args...)
		}
	}
	if st.Watermark > 0 {
		logf("campaign %s shard %d/%d: resuming at unit %d (%d/%d done)",
			m.Name, opts.Shard, m.Shards, st.UnitLo+st.Watermark, st.Watermark, total)
	}
	for u := st.UnitLo + st.Watermark; u < st.UnitHi; u++ {
		if err := ctx.Err(); err != nil {
			return st.Watermark, total, fmt.Errorf("campaign %s shard %d: cancelled before unit %d: %w", m.Name, opts.Shard, u, err)
		}
		data, adopted, err := unitReport(ctx, m, opts, u)
		if err != nil {
			return st.Watermark, total, err
		}
		path := UnitReportPath(opts.Dir, u)
		if !adopted {
			if err := cliutil.WriteFileAtomic(path, data); err != nil {
				return st.Watermark, total, fmt.Errorf("campaign %s: write %s: %w", m.Name, path, err)
			}
		}
		st.Digests = append(st.Digests, Digest(data))
		st.Watermark++
		if err := st.save(opts.Dir); err != nil {
			return st.Watermark - 1, total, fmt.Errorf("campaign %s: save shard state: %w", m.Name, err)
		}
		verb := "completed"
		if adopted {
			verb = "adopted"
		}
		logf("campaign %s shard %d/%d: %s unit %d (%d/%d)", m.Name, opts.Shard, m.Shards, verb, u, st.Watermark, total)
		if opts.OnUnit != nil {
			opts.OnUnit(st.Watermark, total)
		}
		if opts.JournalDir != "" {
			if err := dumpUnitJournals(ctx, m, opts, u, data, logf); err != nil {
				// Journals are diagnostics beside the campaign, not part of
				// its algebra: a dump failure is narrated, never fatal.
				logf("campaign %s shard %d/%d: unit %d journals: %v", m.Name, opts.Shard, m.Shards, u, err)
			}
		}
	}
	return st.Watermark, total, nil
}

// dumpUnitJournals writes a full trace journal beside the unit reports for
// every failure the unit's canonical report retained. It re-parses the
// report bytes (so adopted and freshly-run units journal identically) and
// re-runs each failing config with capture on — both deterministic, so the
// journals are as reproducible as the reports they annotate.
func dumpUnitJournals(ctx context.Context, m *Manifest, opts RunOptions, u int, data []byte, logf func(string, ...any)) error {
	sw, ex, err := cliutil.ReadAnyReport("unit report", data)
	if err != nil {
		return err
	}
	var proto scenario.Protocol
	if sw != nil {
		_, _, proto, err = cliutil.BuildGrid(*m.Grid)
	} else {
		var eopts explore.Options
		eopts, err = m.Explore.Options(m.UnitSeed(u))
		proto = eopts.Proto
	}
	if err != nil {
		return err
	}
	jf := cliutil.JournalFlags{Dir: opts.JournalDir}
	jf.DumpFailures(ctx, fmt.Sprintf("unit-%06d-", u), sw, ex, proto, func(format string, args ...any) {
		logf("campaign %s: unit %d: "+format, append([]any{m.Name, u}, args...)...)
	})
	return nil
}

// unitReport produces unit u's canonical report bytes — re-using an
// already-durable report file when one exists and checks out (the
// crash-between-rename-and-watermark window), else executing the unit.
func unitReport(ctx context.Context, m *Manifest, opts RunOptions, u int) (data []byte, adopted bool, err error) {
	if old, err := os.ReadFile(UnitReportPath(opts.Dir, u)); err == nil {
		if adoptable(m, u, old) {
			return old, true, nil
		}
	}
	switch m.Kind {
	case KindSweep:
		data, err = runSweepUnit(ctx, m, opts, u)
	case KindExplore:
		data, err = runExploreUnit(ctx, m, opts, u)
	default:
		err = fmt.Errorf("campaign %s: unknown kind %q", m.Name, m.Kind)
	}
	return data, false, err
}

// adoptable reports whether previously-written unit report bytes belong to
// this campaign and unit.
func adoptable(m *Manifest, u int, data []byte) bool {
	sw, ex, err := cliutil.ReadAnyReport("unit report", data)
	if err != nil {
		return false
	}
	switch {
	case sw != nil:
		return m.Kind == KindSweep && sw.Campaign == m.Name && sw.Unit != nil && *sw.Unit == u && sw.GridFingerprint == m.Fingerprint
	case ex != nil:
		return m.Kind == KindExplore && ex.Campaign == m.Name && ex.Unit != nil && *ex.Unit == u && ex.SpaceFingerprint == m.Fingerprint
	}
	return false
}

// runSweepUnit sweeps grid slice u and renders its unit report: the
// cmd/sweep report shape with campaign provenance and no wall-clock fields.
func runSweepUnit(ctx context.Context, m *Manifest, opts RunOptions, u int) ([]byte, error) {
	base, grid, proto, err := cliutil.BuildGrid(*m.Grid)
	if err != nil {
		return nil, fmt.Errorf("campaign %s: %w", m.Name, err)
	}
	grid.Shard = scenario.Shard{Index: u + 1, Count: m.Units}
	grid.Workers = opts.Workers
	res := scenario.Sweep(ctx, base, grid, proto)
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("campaign %s: unit %d cancelled: %w", m.Name, u, err)
	}
	rep := cliutil.NewSweepReport(*m.Grid, base, grid, proto, res)
	rep.Campaign, rep.Unit = m.Name, &u
	return marshalJSON(rep)
}

// runExploreUnit explores at the unit's seed and renders its unit report.
func runExploreUnit(ctx context.Context, m *Manifest, opts RunOptions, u int) ([]byte, error) {
	eopts, err := m.Explore.Options(m.UnitSeed(u))
	if err != nil {
		return nil, fmt.Errorf("campaign %s: %w", m.Name, err)
	}
	eopts.Workers = opts.Workers
	res, err := explore.Explore(ctx, eopts)
	if err != nil {
		return nil, fmt.Errorf("campaign %s: unit %d: %w", m.Name, u, err)
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("campaign %s: unit %d cancelled: %w", m.Name, u, err)
	}
	rep := cliutil.NewExploreReport(eopts, res)
	rep.Campaign, rep.Unit = m.Name, &u
	return marshalJSON(rep)
}

// Digest is the sha256 of a unit report, hex-encoded — what shard states
// record and merge verifies.
func Digest(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}
