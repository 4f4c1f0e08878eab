package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// Output check. Every artifact a round produces is reduced to its
// deterministic content — a pure function of the generated inputs — and the
// round's digest is the SHA-256 over those reductions in invocation order.
// Rounds of one run must agree with each other for any seed; for the default
// seed the digest must also equal the committed golden one.

// volatileReportKeys are the wall-clock and provenance fields of a sweep
// report: everything else is a function of the grid.
var volatileReportKeys = []string{"elapsed_ms", "runs_per_sec", "generated_by", "go_version"}

// canonicalReport zeroes a report's volatile fields and re-encodes it with
// sorted keys, numbers kept as written.
func canonicalReport(data []byte) ([]byte, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.UseNumber()
	var m map[string]any
	if err := dec.Decode(&m); err != nil {
		return nil, fmt.Errorf("parse report: %w", err)
	}
	for _, k := range volatileReportKeys {
		delete(m, k)
	}
	return json.Marshal(m)
}

// sweepCounts are the verdict counts of a sweep report.
type sweepCounts struct {
	Runs      int `json:"runs"`
	Passed    int `json:"passed"`
	Faulted   int `json:"faulted"`
	Cancelled int `json:"cancelled"`
}

// exploreCounts are the verdict counts of a merged explore campaign.
type exploreCounts struct {
	Explore *struct {
		Budget    int               `json:"budget"`
		Runs      int               `json:"runs"`
		Cancelled int               `json:"cancelled"`
		Failures  []json.RawMessage `json:"failures"`
	} `json:"explore"`
}

// journalHead is the part of a journal's meta line the check reads: the
// run's trace fingerprint, or why it has none.
type journalHead struct {
	TraceFingerprint string `json:"trace_fingerprint"`
	TaintReason      string `json:"taint_reason"`
	TotalRecords     int    `json:"total_records"`
}

// readJournalHead parses the first line of a journal file.
func readJournalHead(path string) (journalHead, error) {
	var h journalHead
	f, err := os.Open(path)
	if err != nil {
		return h, err
	}
	defer f.Close()
	line, err := bufio.NewReaderSize(f, 1<<20).ReadBytes('\n')
	if err != nil && len(line) == 0 {
		return h, fmt.Errorf("%s: read meta line: %w", path, err)
	}
	if err := json.Unmarshal(line, &h); err != nil {
		return h, fmt.Errorf("%s: parse meta line: %w", path, err)
	}
	return h, nil
}

// roundCheck is what reading a round's artifacts back yields: the digest
// and, per group, how many units the artifacts themselves report as not
// passed (cancelled, faulted, tainted, missing).
type roundCheck struct {
	digest     string
	failed     []int // per plan group
	complaints []string
}

// checkArtifacts canonicalises every artifact of the plan in invocation
// order. A missing or unreadable artifact fails its whole group.
func checkArtifacts(p *plan) roundCheck {
	rc := roundCheck{failed: make([]int, len(p.groups))}
	h := sha256.New()
	failGroup := func(g int, format string, args ...any) {
		rc.failed[g] = p.groups[g].units
		rc.complaints = append(rc.complaints, p.groups[g].label+": "+fmt.Sprintf(format, args...))
	}
	for _, inv := range p.invocations {
		for _, a := range inv.artifacts {
			g := inv.group
			label := filepath.Base(a.path)
			if a.kind == journalFile {
				head, err := readJournalHead(a.path)
				switch {
				case err != nil:
					failGroup(g, "%v", err)
				case head.TraceFingerprint == "":
					failGroup(g, "%s: no trace fingerprint (tainted: %q)", label, head.TaintReason)
				default:
					fmt.Fprintf(h, "%s\njournal fingerprint=%s records=%d\n", label, head.TraceFingerprint, head.TotalRecords)
				}
				continue
			}
			data, err := os.ReadFile(a.path)
			if err != nil {
				failGroup(g, "%v", err)
				continue
			}
			switch a.kind {
			case sweepReport:
				var c sweepCounts
				canon, err := canonicalReport(data)
				if err == nil {
					err = json.Unmarshal(data, &c)
				}
				if err != nil {
					failGroup(g, "%s: %v", label, err)
					continue
				}
				if want := p.groups[g].units; c.Runs != want {
					failGroup(g, "%s: report covers %d runs, the leg has %d grid points", label, c.Runs, want)
					continue
				}
				if bad := c.Runs - c.Passed; bad > 0 {
					rc.failed[g] = max(rc.failed[g], bad)
					rc.complaints = append(rc.complaints, fmt.Sprintf("%s: %d of %d runs not passed (faulted %d, cancelled %d)", label, bad, c.Runs, c.Faulted, c.Cancelled))
				}
				fmt.Fprintf(h, "%s\n%s\n", label, canon)
			case mergedReport:
				var c exploreCounts
				if err := json.Unmarshal(data, &c); err != nil || c.Explore == nil {
					failGroup(g, "%s: not a merged explore report (%v)", label, err)
					continue
				}
				e := c.Explore
				want := p.groups[g].units
				bad := e.Cancelled + len(e.Failures) + max(0, want-e.Runs)
				if e.Budget != want {
					failGroup(g, "%s: merged budget %d, the campaign planned %d runs", label, e.Budget, want)
				} else if bad > 0 {
					rc.failed[g] = max(rc.failed[g], min(bad, want))
					rc.complaints = append(rc.complaints, fmt.Sprintf("%s: %d runs executed of %d, %d cancelled, %d failing behaviours", label, e.Runs, want, e.Cancelled, len(e.Failures)))
				}
			case canonicalText:
				fmt.Fprintf(h, "%s\n%s\n", label, data)
			}
		}
	}
	rc.digest = hex.EncodeToString(h.Sum(nil))
	return rc
}

// Golden digests live in bench/golden/<workload>.digest, one line per scale:
// "<scale> <sha256>", for the default seed.

const defaultSeed = 1

func goldenPath(benchDir, workload string) string {
	return filepath.Join(benchDir, "golden", workload+".digest")
}

// readGolden returns the committed digest of a workload at a scale, or ""
// when none is recorded.
func readGolden(benchDir, workload, scale string) (string, error) {
	data, err := os.ReadFile(goldenPath(benchDir, workload))
	if os.IsNotExist(err) {
		return "", nil
	}
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) == 2 && f[0] == scale {
			return f[1], nil
		}
	}
	return "", nil
}

// writeGolden records digest as the workload's golden at scale, keeping the
// other scales' lines.
func writeGolden(benchDir, workload, scale, digest string) error {
	path := goldenPath(benchDir, workload)
	var lines []string
	if data, err := os.ReadFile(path); err == nil {
		for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
			if f := strings.Fields(line); len(f) == 2 && f[0] != scale {
				lines = append(lines, line)
			}
		}
	}
	lines = append(lines, scale+" "+digest)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o644)
}
