package cliutil

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"weakestfd/internal/model"
	"weakestfd/internal/scenario"
)

// The flag-value parsers refuse garbage with an error: whatever the input,
// they return an error or a value, never panic, a seed list never expands
// past maxSeedList, and a crash schedule names no process twice. The seed
// corpora run as plain tests; explore further with
//
//	go test ./internal/cliutil -run '^$' -fuzz FuzzParseSeeds -fuzztime 10s

func FuzzParseSeeds(f *testing.F) {
	for _, s := range []string{
		"", "1", "-5", "1-1000", "1,2,7-9", "-9--7,4", "3-1", "1,,2", "x", "1-", "--",
		"1,9223372036854775806-9223372036854775807",
		"1,-9223372036854775808-9223372036854775807",
		"-9223372036854775808-9223372036854775807",
		"0-16777215", "1,0-16777216",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		seeds, span, err := ParseSeeds(s)
		if err != nil {
			if seeds != nil || span.N != 0 {
				t.Fatalf("ParseSeeds(%q) errored (%v) but returned %d seeds, span %+v", s, err, len(seeds), span)
			}
			return
		}
		if len(seeds) > maxSeedList {
			t.Fatalf("ParseSeeds(%q) expanded to %d seeds, past %d", s, len(seeds), maxSeedList)
		}
		if span.N < 0 || (span.N > 0 && seeds != nil) {
			t.Fatalf("ParseSeeds(%q) = %d seeds and span %+v", s, len(seeds), span)
		}
	})
}

func FuzzParseDelays(f *testing.F) {
	for _, s := range []string{"", "0:200us", "0:200us,1ms:50ms", "1ms", "2ms:1ms", "-1ms:1ms", ":", ",", "1ms:x", "9223372036854775807ns:9223372036854775807ns"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		delays, err := ParseDelays(s)
		if err != nil {
			return
		}
		for _, d := range delays {
			if d.Min < 0 || d.Max < d.Min {
				t.Fatalf("ParseDelays(%q) accepted %+v", s, d)
			}
		}
	})
}

func FuzzParseCrashes(f *testing.F) {
	for _, s := range []string{"", "-", "-;2@300us", "-;2@300us;0@0s,1@2ms", "5@1ms", "1@1ms,1@2ms", "@", "1@", "@1ms", ";;", "0@-1ms", "x@1ms", "1@1ms,,"} {
		f.Add(s, 3)
	}
	f.Fuzz(func(t *testing.T, s string, n int) {
		scheds, err := ParseCrashes(s, n)
		if err != nil {
			return
		}
		for _, sched := range scheds {
			seen := make(map[model.ProcessID]bool, len(sched))
			for _, c := range sched {
				if int(c.P) < 0 || int(c.P) >= n || c.At < 0 {
					t.Fatalf("ParseCrashes(%q, %d) accepted %+v", s, n, c)
				}
				if seen[c.P] {
					t.Fatalf("ParseCrashes(%q, %d) accepted process %d twice in one schedule", s, n, c.P)
				}
				seen[c.P] = true
			}
		}
	})
}

// FuzzBuildGrid: a grid file decoded over the default table, as sweep -grid
// and campaign plan -grid read it, either is refused by BuildGrid or builds
// a grid whose spec re-encodes and rebuilds to the same fingerprint; and a
// small accepted grid's first point runs without panicking. That last
// property is what a drop rate outside [0, 1] once broke, mid-sweep.
func FuzzBuildGrid(f *testing.F) {
	def, err := json.Marshal(DefaultGridSpec())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(def)
	for _, s := range []string{
		// what cmd/sweep's and cmd/campaign's tests write
		`{"proto":"consensus","n":3,"seeds":"1-2","timeout":"5s"}`,
		`{"proto":"consensus","n":3,"seeds":"1-4","delays":"1ms:2ms"}`,
		`{"proto":"consensus/multi","seeds":"1-4"}`,
		`{"proto":"consensus/multi","seeds":"1-3","detectors":"eventually-strong{stabilize:50}","crashes":"0@0","timeout":"50ms"}`,
		`{"proto":"consensus/multi","n":3,"seeds":"1-4","timeout":"5s"}`,
		`{"proto":"twopc","n":4,"rounds":8,"coordinator":3,"seeds":"1-4","timeout":"30s","keep":8,"shard":"2/2"}`,
		// values the runtime cannot honour
		`{"drop":2}`, `{"drop":-1}`, `{"drop":-0}`, `{"drop":1e999}`, `{"timeout":"-1s"}`, `{"timeout":"0s"}`,
		// mangled keys and documents
		`{"seed":1}`, `{"Drop":0}`, `{"psi_switch":1}`, `{"n":"3"}`, `{"n":0}`, `{"proto":"qc"} {}`, `[]`, ``,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		sp := DefaultGridSpec()
		if readSpecBytes(t, data, &sp) != nil {
			return
		}
		base, grid, p, err := BuildGrid(sp)
		if err != nil {
			return
		}
		fp := GridFingerprint(base, grid, p)
		again, err := json.Marshal(sp)
		if err != nil {
			t.Fatalf("accepted spec %+v does not re-encode: %v", sp, err)
		}
		sp2 := DefaultGridSpec()
		if err := readSpecBytes(t, again, &sp2); err != nil {
			t.Fatalf("re-encoded spec %s does not decode: %v", again, err)
		}
		base2, grid2, p2, err := BuildGrid(sp2)
		if err != nil {
			t.Fatalf("re-encoded spec %s refused: %v", again, err)
		}
		if fp2 := GridFingerprint(base2, grid2, p2); fp2 != fp {
			t.Fatalf("spec %s rebuilt to\n%s\nwant\n%s", again, fp2, fp)
		}
		// MultiConsensus stands up one consensus group per round before its
		// first step, so the run is kept to few rounds as well as few
		// processes.
		if sp.N > 8 || sp.Rounds > 16 || grid.Size() == 0 {
			return
		}
		cfg := grid.ConfigAt(base.Config(), 0)
		if cfg.Timeout <= 0 || cfg.Timeout > time.Second {
			cfg.Timeout = time.Second
		}
		scenario.FromConfig(cfg).Run(context.Background(), p)
	})
}

// readSpecBytes reads data as a spec file, through ReadSpec's strict decoder.
func readSpecBytes(t *testing.T, data []byte, v any) error {
	path := filepath.Join(t.TempDir(), "spec.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return ReadSpec(path, v)
}
