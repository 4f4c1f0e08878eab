package main

import (
	"os"
	"path/filepath"
	"testing"
)

// A grid file with a misspelt key is a usage error (exit 2) before any run
// starts, not a silent sweep of the default seeds.
func TestGridTypoExitsTwo(t *testing.T) {
	grid := filepath.Join(t.TempDir(), "typo.json")
	if err := os.WriteFile(grid, []byte(`{"proto":"consensus","n":3,"seed":"1-2","timeout":"5s"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	args := os.Args
	defer func() { os.Args = args }()
	os.Args = []string{"sweep", "-grid", grid, "-out", filepath.Join(t.TempDir(), "report.json")}
	if code := run(); code != 2 {
		t.Fatalf("sweep -grid on a file with an unknown key exited %d, want 2", code)
	}
}
