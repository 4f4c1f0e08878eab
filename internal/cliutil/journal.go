package cliutil

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"weakestfd/internal/journal"
	"weakestfd/internal/scenario"
)

// JournalProtocol rebuilds the protocol a journal recorded: its name and
// parameter from the meta, over n processes. A journal without a parameter
// reads as the recorder's historical defaults, 8 rounds and coordinator 0:
// journals recorded before the meta carried the parameter were recorded at
// them.
func JournalProtocol(m journal.Meta, n int) (scenario.Protocol, error) {
	rounds, coordinator := 8, 0
	if v, ok := m.Params["rounds"]; ok {
		rounds = v
	}
	if v, ok := m.Params["coordinator"]; ok {
		coordinator = v
	}
	return BuildProtocol(m.Protocol, n, rounds, coordinator)
}

// JournalFlags is the shared journal-dump flag of the failure-retaining CLIs
// (cmd/sweep, cmd/explore, cmd/campaign): -journals <dir> makes every
// retained failure dump a full trace journal next to the report, replayable
// with cmd/replay. Register it on the flag set, then hand DumpFailures the
// report.
type JournalFlags struct {
	Dir string
}

// Register installs the flag.
func (jf *JournalFlags) Register(fs *flag.FlagSet) {
	fs.StringVar(&jf.Dir, "journals", "", "directory to dump full trace journals of retained failures into (replay them with cmd/replay)")
}

// dump re-executes cfg with full-stream journaling and writes the journal to
// <dir>/<name>.journal (atomically), returning the path. Runs are
// deterministic and capture is observe-only, so the re-run reproduces the
// retained failure's exact schedule rather than perturbing it; the price is
// one extra run per retained failure, paid only when -journals is set. The
// journal is written even if the re-run's verdict changed (it then still
// documents the schedule the config produces), but a run with no trace to
// journal — setup failed, or no runner was launched — is an error naming the
// reason.
func (jf *JournalFlags) dump(ctx context.Context, name string, cfg scenario.Config, proto scenario.Protocol) (string, error) {
	if err := os.MkdirAll(jf.Dir, 0o755); err != nil {
		return "", fmt.Errorf("journals: %w", err)
	}
	c := cfg.Clone()
	c.Journal = scenario.JournalAll
	c.Recorder = nil
	res := scenario.FromConfig(c).Run(ctx, proto)
	if res.Journal == nil {
		if reason := res.TraceSummary.TaintReason; reason != "" {
			return "", fmt.Errorf("journals: %s: run produced no journal: %s", name, reason)
		}
		return "", fmt.Errorf("journals: %s: run produced no journal (setup failed, or no runners launched): %v", name, res.Verdict)
	}
	data, err := res.Journal.Encode()
	if err != nil {
		return "", fmt.Errorf("journals: %s: %w", name, err)
	}
	path := filepath.Join(jf.Dir, name+".journal")
	if err := WriteFileAtomic(path, data); err != nil {
		return "", fmt.Errorf("journals: %s: %w", name, err)
	}
	return path, nil
}

// DumpFailures journals every failure a report retained — a sweep report's
// as <prefix>failure-<grid index>, an explore report's as
// <prefix>failure-run<run> — and narrates each dump, or why it failed,
// through logf. A failed dump does not stop the others; a cancelled ctx
// does, and without a journal directory nothing is dumped. It is the one
// failure-journal loop of cmd/sweep, cmd/explore and campaign units: pass
// the report at hand and nil for the other kind.
func (jf *JournalFlags) DumpFailures(ctx context.Context, prefix string, sw *SweepReport, ex *ExploreReport, proto scenario.Protocol, logf func(format string, args ...any)) {
	if jf.Dir == "" {
		return
	}
	var names []string
	var cfgs []scenario.Config
	if sw != nil {
		for _, f := range sw.Failures {
			names, cfgs = append(names, fmt.Sprintf("failure-%06d", f.Index)), append(cfgs, f.Config)
		}
	}
	if ex != nil {
		for _, f := range ex.Failures {
			names, cfgs = append(names, fmt.Sprintf("failure-run%06d", f.Run)), append(cfgs, f.Config)
		}
	}
	for i, cfg := range cfgs {
		if ctx.Err() != nil {
			return
		}
		if path, err := jf.dump(ctx, prefix+names[i], cfg, proto); err != nil {
			logf("%v", err)
		} else {
			logf("journaled %s", path)
		}
	}
}
