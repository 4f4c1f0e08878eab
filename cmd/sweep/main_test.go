package main

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"weakestfd/internal/cliutil"
)

// A grid file with an unknown key is a usage error (exit 2) naming the key,
// before any run starts, not a silent sweep of the defaults: a misspelt key,
// and the detector-quality keys the spec grammar replaced.
func TestGridTypoExitsTwo(t *testing.T) {
	// "N" and "Drop" are keys of the spec in the wrong letter case.
	for _, key := range []string{"seed", "suspicion", "fs_delay", "psi_switch", "N", "Drop"} {
		t.Run(key, func(t *testing.T) {
			dir := t.TempDir()
			grid := filepath.Join(dir, "grid.json")
			spec := `{"proto":"consensus","n":3,"seeds":"1-2","timeout":"5s","` + key + `":1}`
			if err := os.WriteFile(grid, []byte(spec), 0o644); err != nil {
				t.Fatal(err)
			}
			code, msg := sweepStderr(t, "-grid", grid, "-out", filepath.Join(dir, "report.json"))
			if code != 2 {
				t.Fatalf("sweep -grid with key %q exited %d, want 2 (stderr: %s)", key, code, msg)
			}
			if !strings.Contains(msg, `"`+key+`"`) {
				t.Fatalf("usage error does not name the key %q: %s", key, msg)
			}
		})
	}
	// A spec spelled in the wrong case throughout is refused, naming the
	// first such key in sorted order, not run as a qc grid.
	grid := filepath.Join(t.TempDir(), "grid.json")
	if err := os.WriteFile(grid, []byte(`{"PROTO":"qc","N":3,"Seeds":"1-2"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if code, msg := sweepStderr(t, "-grid", grid, "-out", filepath.Join(t.TempDir(), "report.json")); code != 2 || !strings.Contains(msg, `"N"`) {
		t.Errorf("sweep -grid with case-variant keys exited %d, want 2 naming \"N\": %s", code, msg)
	}
	// A value the runtime cannot honour is refused at the loader, not by a
	// panic in a sweep worker.
	for _, c := range []struct{ flag, value string }{
		{"drop", "2"}, {"drop", "-1"}, {"drop", "NaN"}, {"timeout", "-1s"},
	} {
		code, msg := sweepStderr(t, "-proto", "consensus", "-n", "3", "-seeds", "1-2", "-"+c.flag, c.value,
			"-out", filepath.Join(t.TempDir(), "report.json"))
		if code != 2 || !strings.Contains(msg, c.flag+":") || strings.Contains(msg, "goroutine") {
			t.Errorf("sweep -%s %s exited %d, want 2 naming %s without a goroutine trace: %s", c.flag, c.value, code, c.flag, msg)
		}
	}
}

// Each detector class has one spelling: a retired alternate name is a usage
// error naming the registered classes, not a second fingerprint for the
// same detector.
func TestRetiredDetectorNamesExitTwo(t *testing.T) {
	for _, name := range []string{"p", "oracle", "diamond-p", "<>s"} {
		code, msg := sweepStderr(t, "-proto", "consensus", "-n", "3", "-seeds", "1", "-detectors", name,
			"-out", filepath.Join(t.TempDir(), "report.json"))
		if code != 2 || !strings.Contains(msg, "registered: ") || !strings.Contains(msg, "eventually-perfect") {
			t.Errorf("sweep -detectors %s exited %d, want 2 naming the registered classes: %s", name, code, msg)
		}
	}
}

// sweepStderr runs the sweep command in-process with args and returns its
// exit code and what it wrote to stderr.
func sweepStderr(t *testing.T, args ...string) (int, string) {
	t.Helper()
	stderr, err := os.Create(filepath.Join(t.TempDir(), "stderr"))
	if err != nil {
		t.Fatal(err)
	}
	defer stderr.Close()
	errOut := os.Stderr
	defer func() { os.Stderr = errOut }()
	os.Stderr = stderr
	code := sweepCLI(t, args...)
	os.Stderr = errOut
	msg, err := os.ReadFile(stderr.Name())
	if err != nil {
		t.Fatal(err)
	}
	return code, string(msg)
}

// sweepCLI runs the sweep command in-process with args and returns its exit
// code.
func sweepCLI(t *testing.T, args ...string) int {
	t.Helper()
	osArgs, cmdline := os.Args, flag.CommandLine
	defer func() { os.Args, flag.CommandLine = osArgs, cmdline }()
	os.Args = append([]string{"sweep"}, args...)
	flag.CommandLine = flag.NewFlagSet(os.Args[0], flag.ContinueOnError)
	return run()
}

// sweepReport runs the sweep command with args into dir/name and returns the
// report's bytes, failing the test unless it exits 0.
func sweepReport(t *testing.T, dir, name string, args ...string) []byte {
	t.Helper()
	out := filepath.Join(dir, name)
	if code := sweepCLI(t, append(args, "-out", out)...); code != 0 {
		t.Fatalf("sweep %s exited %d", strings.Join(args, " "), code)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func decodeReport(t *testing.T, data []byte) cliutil.SweepReport {
	t.Helper()
	var rep cliutil.SweepReport
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	return rep
}

// withoutTiming is a report with its wall-clock fields dropped: what two
// runs of the same sweep must agree on byte for byte.
func withoutTiming(t *testing.T, data []byte) string {
	t.Helper()
	var fields map[string]json.RawMessage
	if err := json.Unmarshal(data, &fields); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"generated_by", "elapsed_ms", "runs_per_sec"} {
		delete(fields, k)
	}
	out, err := json.Marshal(fields)
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// TestFlagsOverrideGridFile: a -grid file is read over the default table and
// explicit flags win over its keys — whether the flag comes before or after
// -grid on the command line.
func TestFlagsOverrideGridFile(t *testing.T) {
	dir := t.TempDir()
	grid := filepath.Join(dir, "grid.json")
	if err := os.WriteFile(grid, []byte(`{"proto":"consensus","n":3,"seeds":"1-4","delays":"1ms:2ms"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	rep := decodeReport(t, sweepReport(t, dir, "report.json", "-n", "4", "-grid", grid, "-seeds", "2-3"))
	want := "grid{base=n=4 seed=1 delay=[0s,200µs] drop=0 det=omega-sigma crashes=[] term=true timeout=30s;seeds=;seedspan=2+2;detectors=;delays=[1ms,2ms];crashes=}"
	if rep.N != 4 || rep.Runs != 2 || rep.GridFingerprint != want {
		t.Fatalf("n=%d runs=%d fingerprint %s, want n=4 runs=2 fingerprint %s", rep.N, rep.Runs, rep.GridFingerprint, want)
	}
}

// TestDetectorAxisReport: one invocation over four named detector classes
// plus one degraded-quality spec, with a crash on the highest id only
// (outside every fallback quorum): the per-spec counts tile the grid and
// every spec passes every point.
func TestDetectorAxisReport(t *testing.T) {
	rep := decodeReport(t, sweepReport(t, t.TempDir(), "detgrid.json", "-proto", "consensus", "-n", "5", "-seeds", "1-4",
		"-detectors", "omega-sigma,perfect,eventually-perfect{stabilize:50},eventually-strong{stabilize:50},omega-sigma{suspect:10}",
		"-crashes", "-;4@500us"))
	if rep.GridSize != 40 || len(rep.Detectors) != 5 {
		t.Fatalf("grid size %d over %d detectors, want 40 over 5", rep.GridSize, len(rep.Detectors))
	}
	runs := 0
	for _, d := range rep.Detectors {
		runs += d.Runs
		if d.Passed != d.Runs {
			t.Errorf("%s passed %d of %d", d.Spec, d.Passed, d.Runs)
		}
	}
	if runs != rep.Runs {
		t.Errorf("per-detector runs sum to %d, the report ran %d", runs, rep.Runs)
	}
}

// TestProbedReportByteStable: two identical seeded probed invocations write
// the same report bytes apart from the wall-clock fields; the per-detector
// probe aggregates partition the overall one, and the mid-run crash shows in
// the detection-latency histogram.
func TestProbedReportByteStable(t *testing.T) {
	dir := t.TempDir()
	args := []string{"-proto", "consensus", "-n", "4", "-seeds", "1-6", "-delays", "1ms:10ms",
		"-detectors", "omega-sigma,perfect", "-crashes", "-;3@2ms", "-probes"}
	a, b := sweepReport(t, dir, "probes1.json", args...), sweepReport(t, dir, "probes2.json", args...)
	if withoutTiming(t, a) != withoutTiming(t, b) {
		t.Fatalf("probed sweep reports differ beyond timing:\n%s\n%s", a, b)
	}
	rep := decodeReport(t, a)
	p := rep.Probes
	if p == nil || p.Runs != int64(rep.Runs) {
		t.Fatalf("probe aggregate %+v does not cover the %d runs", p, rep.Runs)
	}
	var runs int64
	for _, d := range rep.Detectors {
		if d.Probes == nil {
			t.Fatalf("%s carries no probe aggregate", d.Spec)
		}
		runs += d.Probes.Runs
	}
	if runs != p.Runs {
		t.Errorf("per-detector aggregates cover %d runs, the overall one %d", runs, p.Runs)
	}
	if p.DetectionLatency.Count == 0 {
		t.Errorf("the crash schedule left no detection-latency observation")
	}
}
