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
	for _, key := range []string{"seed", "suspicion", "fs_delay", "psi_switch"} {
		t.Run(key, func(t *testing.T) {
			dir := t.TempDir()
			grid := filepath.Join(dir, "grid.json")
			spec := `{"proto":"consensus","n":3,"seeds":"1-2","timeout":"5s","` + key + `":1}`
			if err := os.WriteFile(grid, []byte(spec), 0o644); err != nil {
				t.Fatal(err)
			}
			stderr, err := os.Create(filepath.Join(dir, "stderr"))
			if err != nil {
				t.Fatal(err)
			}
			defer stderr.Close()
			args, cmdline, errOut := os.Args, flag.CommandLine, os.Stderr
			defer func() { os.Args, flag.CommandLine, os.Stderr = args, cmdline, errOut }()
			os.Args = []string{"sweep", "-grid", grid, "-out", filepath.Join(dir, "report.json")}
			flag.CommandLine = flag.NewFlagSet(os.Args[0], flag.ContinueOnError)
			os.Stderr = stderr

			code := run()
			os.Stderr = errOut
			msg, err := os.ReadFile(stderr.Name())
			if err != nil {
				t.Fatal(err)
			}
			if code != 2 {
				t.Fatalf("sweep -grid with key %q exited %d, want 2 (stderr: %s)", key, code, msg)
			}
			if !strings.Contains(string(msg), `"`+key+`"`) {
				t.Fatalf("usage error does not name the key %q: %s", key, msg)
			}
		})
	}
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
	out := filepath.Join(dir, "report.json")
	args, cmdline := os.Args, flag.CommandLine
	defer func() { os.Args, flag.CommandLine = args, cmdline }()
	os.Args = []string{"sweep", "-n", "4", "-grid", grid, "-seeds", "2-3", "-out", out}
	flag.CommandLine = flag.NewFlagSet(os.Args[0], flag.ContinueOnError)
	if code := run(); code != 0 {
		t.Fatalf("sweep exited %d", code)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var rep cliutil.SweepReport
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	want := "grid{base=n=4 seed=1 delay=[0s,200µs] drop=0 det=omega-sigma crashes=[] term=true timeout=30s;seeds=;seedspan=2+2;detectors=;delays=[1ms,2ms];crashes=}"
	if rep.N != 4 || rep.Runs != 2 || rep.GridFingerprint != want {
		t.Fatalf("n=%d runs=%d fingerprint %s, want n=4 runs=2 fingerprint %s", rep.N, rep.Runs, rep.GridFingerprint, want)
	}
}
