package cliutil

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"weakestfd/internal/scenario"
)

// JournalFlags is the shared journal-dump flag of the failure-retaining CLIs
// (cmd/sweep, cmd/explore, cmd/campaign): -journals <dir> makes every
// retained failure dump a full trace journal next to the report, replayable
// with cmd/replay. Register it on the flag set, then call Dump once per
// retained failing config.
type JournalFlags struct {
	Dir string
}

// Register installs the flag.
func (jf *JournalFlags) Register(fs *flag.FlagSet) {
	fs.StringVar(&jf.Dir, "journals", "", "directory to dump full trace journals of retained failures into (replay them with cmd/replay)")
}

// Enabled reports whether journal dumping was requested.
func (jf *JournalFlags) Enabled() bool { return jf.Dir != "" }

// Dump re-executes cfg with full-stream journaling and writes the journal to
// <dir>/<name>.journal (atomically), returning the path. Runs are
// deterministic and capture is observe-only, so the re-run reproduces the
// retained failure's exact schedule rather than perturbing it; the price is
// one extra run per retained failure, paid only when -journals is set. The
// journal is written even if the re-run's verdict changed (it then still
// documents the schedule the config produces), but a run with no trace to
// journal — setup failed, or no runner was launched — is an error naming the
// reason.
func (jf *JournalFlags) Dump(ctx context.Context, name string, cfg scenario.Config, proto scenario.Protocol) (string, error) {
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
