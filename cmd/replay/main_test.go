package main

import (
	"bytes"
	"context"
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"

	"weakestfd/internal/scenario"
)

// replayCLI runs the replay command in-process with args and returns its
// exit code.
func replayCLI(t *testing.T, args ...string) int {
	t.Helper()
	dir := t.TempDir()
	stdout, err := os.Create(filepath.Join(dir, "stdout"))
	if err != nil {
		t.Fatal(err)
	}
	defer stdout.Close()
	stderr, err := os.Create(filepath.Join(dir, "stderr"))
	if err != nil {
		t.Fatal(err)
	}
	defer stderr.Close()
	osArgs, cmdline, out, errOut := os.Args, flag.CommandLine, os.Stdout, os.Stderr
	defer func() { os.Args, flag.CommandLine, os.Stdout, os.Stderr = osArgs, cmdline, out, errOut }()
	os.Args = append([]string{"replay"}, args...)
	flag.CommandLine = flag.NewFlagSet(os.Args[0], flag.ContinueOnError)
	os.Stdout, os.Stderr = stdout, stderr
	return run()
}

// TestRecordOnePoint: -record builds one scenario point — the journal is
// the one the same settings produce through the scenario builder, and it
// replays — and refuses flags that describe more than one point.
func TestRecordOnePoint(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "run.journal")
	if code := replayCLI(t, "-record", "-proto", "consensus", "-n", "5", "-seed", "7", "-delays", "1ms:3ms", "-crashes", "0@2ms", "-o", path); code != 0 {
		t.Fatalf("-record exited %d", code)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
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
	if code := replayCLI(t, path); code != 0 {
		t.Errorf("replay of the recorded journal exited %d", code)
	}

	for name, flags := range map[string][]string{
		"two crash schedules": {"-crashes", "0@1ms;1@2ms"},
		"two delay ranges":    {"-delays", "0:1ms,1ms:2ms"},
	} {
		args := append([]string{"-record", "-o", filepath.Join(dir, "many.journal")}, flags...)
		if code := replayCLI(t, args...); code != 2 {
			t.Errorf("%s: -record exited %d, want 2", name, code)
		}
	}
}
