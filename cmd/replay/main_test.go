package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"weakestfd/internal/fd"
	"weakestfd/internal/journal"
	"weakestfd/internal/scenario"
)

// replayCLI runs the replay command in-process with args and returns its
// exit code and what it wrote to stdout and stderr.
func replayCLI(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	dir := t.TempDir()
	outF, err := os.Create(filepath.Join(dir, "stdout"))
	if err != nil {
		t.Fatal(err)
	}
	defer outF.Close()
	errF, err := os.Create(filepath.Join(dir, "stderr"))
	if err != nil {
		t.Fatal(err)
	}
	defer errF.Close()
	osArgs, cmdline, out, errOut := os.Args, flag.CommandLine, os.Stdout, os.Stderr
	defer func() { os.Args, flag.CommandLine, os.Stdout, os.Stderr = osArgs, cmdline, out, errOut }()
	os.Args = append([]string{"replay"}, args...)
	flag.CommandLine = flag.NewFlagSet(os.Args[0], flag.ContinueOnError)
	os.Stdout, os.Stderr = outF, errF
	code = run()
	os.Stdout, os.Stderr = out, errOut
	return code, readFile(t, outF.Name()), readFile(t, errF.Name())
}

func readFile(t *testing.T, path string) string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// record runs replay -record with args into dir/name and returns the path.
func record(t *testing.T, dir, name string, args ...string) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if code, _, stderr := replayCLI(t, append(append([]string{"-record"}, args...), "-o", path)...); code != 0 {
		t.Fatalf("-record %v exited %d: %s", args, code, stderr)
	}
	return path
}

// writeJournal encodes j to dir/name and returns the path.
func writeJournal(t *testing.T, dir, name string, j *journal.Journal) string {
	t.Helper()
	data, err := j.Encode()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestRecordOnePoint: -record builds one scenario point — the journal is
// the one the same settings produce through the scenario builder, and it
// replays — and refuses flags that describe more than one point.
func TestRecordOnePoint(t *testing.T) {
	dir := t.TempDir()
	path := record(t, dir, "run.journal", "-proto", "consensus", "-n", "5", "-seed", "7", "-delays", "1ms:3ms", "-crashes", "0@2ms")
	got := []byte(readFile(t, path))
	res := scenario.New(5,
		scenario.WithSeed(7),
		scenario.WithDelays(time.Millisecond, 3*time.Millisecond),
		scenario.WithCrash(0, 2*time.Millisecond),
		scenario.WithJournal(scenario.JournalAll),
	).Run(context.Background(), scenario.Consensus{})
	want, err := res.Journal.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("recorded journal differs from the scenario builder's")
	}
	if code, _, _ := replayCLI(t, path); code != 0 {
		t.Errorf("replay of the recorded journal exited %d", code)
	}

	// -detectors picks the point's detector class.
	path = record(t, dir, "perfect.journal", "-proto", "consensus", "-n", "5", "-seed", "7", "-detectors", "perfect")
	got = []byte(readFile(t, path))
	res = scenario.New(5,
		scenario.WithSeed(7),
		scenario.WithDetector(fd.DetectorSpec{Class: "perfect"}),
		scenario.WithJournal(scenario.JournalAll),
	).Run(context.Background(), scenario.Consensus{})
	if want, err = res.Journal.Encode(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("-detectors perfect: recorded journal differs from the scenario builder's")
	}

	for name, flags := range map[string][]string{
		"two crash schedules": {"-crashes", "0@1ms;1@2ms"},
		"two delay ranges":    {"-delays", "0:1ms,1ms:2ms"},
		"two detectors":       {"-detectors", "omega-sigma,perfect"},
		"negative timeout":    {"-timeout", "-1s"},
	} {
		args := append([]string{"-record", "-o", filepath.Join(dir, "many.journal")}, flags...)
		if code, _, _ := replayCLI(t, args...); code != 2 {
			t.Errorf("%s: -record exited %d, want 2", name, code)
		}
	}
}

// TestReplayRebuildsRecordedParameter: a journal of a parameterised protocol
// records its parameter in the meta, and replay rebuilds the protocol from
// it — a 2-round multi-consensus journal and a twopc journal with
// coordinator 2 replay record for record, with no -rounds or -coordinator
// on the replay command line.
func TestReplayRebuildsRecordedParameter(t *testing.T) {
	dir := t.TempDir()
	for _, tc := range []struct {
		name  string
		args  []string
		param string
		value int
	}{
		{"multi.journal", []string{"-proto", "consensus/multi", "-rounds", "2"}, "rounds", 2},
		{"twopc.journal", []string{"-proto", "twopc", "-coordinator", "2"}, "coordinator", 2},
	} {
		path := record(t, dir, tc.name, append(tc.args, "-n", "3", "-seed", "3")...)
		j, err := journal.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if got := j.Meta.Params; len(got) != 1 || got[tc.param] != tc.value {
			t.Errorf("%s: meta params %v, want %s=%d", tc.name, got, tc.param, tc.value)
		}
		if code, stdout, _ := replayCLI(t, path); code != 0 {
			t.Errorf("%s: replay exited %d:\n%s", tc.name, code, stdout)
		}
	}
	// A parameter-free protocol records no parameter.
	j, err := journal.ReadFile(record(t, dir, "consensus.journal", "-proto", "consensus", "-n", "3"))
	if err != nil {
		t.Fatal(err)
	}
	if j.Meta.Params != nil {
		t.Errorf("consensus journal records params %v", j.Meta.Params)
	}
}

// TestReplayExitCodes holds the CLI to its exit codes over one recorded
// journal: a full match exits 0 and prints the journal's own fingerprint; a
// journal with one scheduler decision changed diverges at that record (1),
// differs from the original (-diff, 1) and fails verification (-verify, 1);
// a record line whose keys are out of canonical order is refused by the
// loader naming its line (2).
func TestReplayExitCodes(t *testing.T) {
	dir := t.TempDir()
	path := record(t, dir, "run.journal", "-proto", "consensus", "-n", "5", "-seed", "7", "-crashes", "0@2ms")
	j, err := journal.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if code, stdout, _ := replayCLI(t, path); code != 0 || !strings.Contains(stdout, j.Meta.TraceFingerprint) {
		t.Fatalf("replay exited %d, want 0 and the fingerprint %s in:\n%s", code, j.Meta.TraceFingerprint, stdout)
	}
	// A -record flag in another mode is refused, naming the flag.
	for flagName, args := range map[string][]string{
		"-rounds":  {"-rounds", "2", path},
		"-seed":    {"-verify", "-seed", "3", path},
		"-n":       {"-stats", "-n", "5", path},
		"-proto":   {"-diff", "-proto", "qc", path, path},
		"-timeout": {"-timeout", "1s", path},
	} {
		if code, _, stderr := replayCLI(t, args...); code != 2 || !strings.Contains(stderr, flagName+" is a -record flag") {
			t.Errorf("replay %v exited %d, want 2 naming %s: %s", args, code, flagName, stderr)
		}
	}

	idx := len(j.Records) / 2
	switch r := &j.Records[idx]; {
	case r.Seq != 0:
		r.Seq += 7
	case r.Task != 0:
		r.Task += 7
	default:
		r.At += 7
	}
	mutated := writeJournal(t, dir, "mutated.journal", j)
	if code, stdout, _ := replayCLI(t, mutated); code != 1 || !strings.Contains(stdout, "replay diverged at record") {
		t.Errorf("replay of a mutated journal exited %d, want 1 and a divergence report:\n%s", code, stdout)
	}
	if code, _, _ := replayCLI(t, "-diff", path, mutated); code != 1 {
		t.Errorf("-diff of differing journals exited %d, want 1", code)
	}
	if code, _, _ := replayCLI(t, "-verify", mutated); code != 1 {
		t.Errorf("-verify of a mutated journal exited %d, want 1", code)
	}

	lines := strings.Split(readFile(t, path), "\n")
	ln := len(lines) / 2
	for ; ln < len(lines) && strings.Count(lines[ln], `,"`) < 2; ln++ {
	}
	if ln == len(lines) {
		t.Fatal("no record line with three keys in the second half of the journal")
	}
	fields := strings.Split(strings.TrimSuffix(strings.TrimPrefix(lines[ln], "{"), "}"), `,"`)
	fields[1], fields[2] = fields[2], fields[1]
	lines[ln] = "{" + strings.Join(fields, `,"`) + "}"
	swapped := filepath.Join(dir, "swapped.journal")
	if err := os.WriteFile(swapped, []byte(strings.Join(lines, "\n")), 0o644); err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("line %d:", ln+1) // 1-based; the meta is line 1
	if code, _, stderr := replayCLI(t, "-verify", swapped); code != 2 || !strings.Contains(stderr, want) {
		t.Errorf("-verify of a non-canonical line exited %d, want 2 and %q in: %s", code, want, stderr)
	}
}

// TestReplayStats: -stats refolds the probes offline and matches the live
// capture stored in the meta; a journal without that probe block is refused
// (2).
func TestReplayStats(t *testing.T) {
	dir := t.TempDir()
	path := record(t, dir, "run.journal", "-proto", "consensus", "-n", "5", "-seed", "7", "-crashes", "0@2ms")
	code, stdout, _ := replayCLI(t, "-stats", path)
	if code != 0 || !strings.Contains(stdout, "matches the live capture") || !strings.Contains(stdout, "decision_latency") {
		t.Fatalf("-stats exited %d, want 0 and the matching summaries:\n%s", code, stdout)
	}
	j, err := journal.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	j.Meta.Probes = nil
	noProbes := writeJournal(t, dir, "noprobes.journal", j)
	if code, _, stderr := replayCLI(t, "-stats", noProbes); code != 2 || !strings.Contains(stderr, "no live probe capture") {
		t.Errorf("-stats of a probe-less journal exited %d, want 2 naming the missing capture: %s", code, stderr)
	}
}
