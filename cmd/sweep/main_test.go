package main

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
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
