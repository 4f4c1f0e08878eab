package campaign

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"weakestfd/internal/cliutil"
	"weakestfd/internal/explore"
	"weakestfd/internal/scenario"
)

// The loaders of this package refuse garbage with an error, never a panic,
// and what they accept re-encodes to something they read back the same. The
// seed corpora run as plain tests; explore further with
//
//	go test ./internal/campaign -run '^$' -fuzz FuzzSeedCorpus -fuzztime 10s

// FuzzSeedCorpus: SeedCorpus returns an error or a corpus with entries;
// an accepted corpus, carried in a merged report, reads back to the same
// corpus, protocol and n.
func FuzzSeedCorpus(f *testing.F) {
	cfg := scenario.New(3, scenario.WithSeed(4)).Config()
	corpus := &explore.CorpusState{
		SchemaVersion: explore.CorpusVersion,
		Entries:       []explore.Entry{{Signature: "s", Config: cfg, Parent: -1, Mutator: "base", FoundAtRun: 1, Energy: 4}},
		Behaviours:    []string{"b"},
		FailureSigs:   []string{"f"},
	}
	for _, v := range []any{
		// a merged explore report, a merged sweep-only report
		&Merged{SchemaVersion: cliutil.ReportSchemaVersion, Inputs: 2,
			Explore: &MergedExplore{SpaceFingerprint: "explore{}", Proto: "consensus", N: 3, Reports: 2, Seeds: []int64{1, 2}, Corpus: corpus}},
		&Merged{SchemaVersion: cliutil.ReportSchemaVersion, Inputs: 1,
			Sweep: &MergedSweep{GridFingerprint: "grid{}", Proto: "consensus", N: 3, GridSize: 2, Reports: 1, Ranges: [][2]int{{0, 2}}, Complete: true, Runs: 2, Passed: 2}},
		// an explore report, and what explore -corpus-out once wrote
		&cliutil.ExploreReport{SchemaVersion: cliutil.ReportSchemaVersion,
			Report: explore.Report{Proto: "consensus", N: 3, Budget: 1, Runs: 1, Novel: 1, Corpus: corpus.Entries, Behaviours: corpus.Behaviours}},
		corpus,
	} {
		data, err := json.Marshal(v)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	for _, s := range []string{
		`{"entrys":[1,2,3]}`,
		`{"schema_version":2,"budget":1,"corpus":[{"signature":"s"}]}`,
		`{"schema_version":1,"inputs":1,"explore":{"corpus":{"schema_version":2,"entries":[{"signature":"s"}]}}}`,
		`{"schema_version":1,"inputs":1,"explore":{"corpus":{"entries":[]}}}`,
		`{"schema_version":1,"inputs":1,"explore":{"proto":"consensus/omega-sigma","n":3,"corpus":{"schema_version":1,"entries":[{"signature":"s"}]}}}`,
		`{"schema_version":1,"budget":1,"proto":"consensus/omega-sigma","n":3,"corpus":[{"signature":"s","config":{"N":3,"Crashes":[{"P":7}]}}]}`,
		`{"schema_version":1,"inputs":1}`, `{"grid_size":1}`, `{"budget":1}`, `{"budget":1,"corpus":[{"config":{"N":"x"}}]}`,
		`null`, `[]`, `{}`, ``, `"corpus"`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		st, proto, n, err := SeedCorpus("corpus", data)
		if err != nil {
			if st != nil {
				t.Fatalf("SeedCorpus(%q) errored (%v) but returned a corpus", data, err)
			}
			return
		}
		if len(st.Entries) == 0 {
			t.Fatalf("SeedCorpus(%q) accepted an empty corpus", data)
		}
		enc, err := json.Marshal(st)
		if err != nil {
			t.Fatalf("accepted corpus of %q does not encode: %v", data, err)
		}
		carried, err := json.Marshal(&Merged{SchemaVersion: cliutil.ReportSchemaVersion, Inputs: 1, Explore: &MergedExplore{Proto: proto, N: n, Corpus: st}})
		if err != nil {
			t.Fatal(err)
		}
		st2, proto2, n2, err := SeedCorpus("carried corpus", carried)
		if err != nil {
			t.Fatalf("corpus %s, carried in a merged report, refused: %v", enc, err)
		}
		if proto2 != proto || n2 != n {
			t.Fatalf("corpus of %s at n=%d read back as %s at n=%d", proto, n, proto2, n2)
		}
		if enc2, err := json.Marshal(st2); err != nil || !bytes.Equal(enc, enc2) {
			t.Fatalf("corpus %s read back as %s (%v)", enc, enc2, err)
		}
	})
}

// FuzzExploreSpec: an explore spec file decoded strictly over the default
// table, as campaign plan -explore reads it, either is refused by Options
// or builds options that re-encode, re-read as a manifest reads its stored
// spec, and build to the same space fingerprint; and a small accepted
// exploration (n and runs capped at 8) runs without panicking.
func FuzzExploreSpec(f *testing.F) {
	def, err := json.Marshal(DefaultExploreSpec())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(def)
	for _, s := range []string{
		// what the CLIs' tests, CI's campaign smoke and the benchmark write
		`{"proto":"consensus/multi","n":3,"seed":5,"runs":16,"minimize":0}`,
		`{"proto":"consensus","n":4,"seed":5,"runs":48,"batch":8,"classes":"omega-sigma,eventually-strong{stabilize:50}","minimize":1}`,
		`{"proto":"consensus","n":3,"runs":4,"crashes":"0@0","delays":"0:1ms","safety_only":true,"trace_signal":true,"depth_signal":true}`,
		`{"proto":"twopc","n":3,"coordinator":2,"runs":4}`,
		// values the runtime cannot honour
		`{"n":0}`, `{"runs":0}`, `{"runs":-1}`, `{"timeout":"-1s"}`, `{"delays":"2ms:1ms"}`, `{"delays":"0:1ms,1ms:2ms"}`,
		`{"crashes":"-;0@0"}`, `{"crashes":"9@0"}`, `{"classes":"p"}`, `{"proto":"twopc","coordinator":9}`,
		`{"proto":"consensus/multi","rounds":10000000}`,
		// mangled keys and documents
		`{"Runs":4}`, `{"runs":"4"}`, `{"seeds":"1-2"}`, `{"n":3} {}`, `[]`, ``, `null`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		sp := DefaultExploreSpec()
		path := filepath.Join(t.TempDir(), "spec.json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if cliutil.ReadSpec(path, &sp) != nil {
			return
		}
		opts, err := sp.Options(sp.Seed)
		if err != nil {
			return
		}
		fp := cliutil.ExploreFingerprint(opts)
		again, err := json.Marshal(sp)
		if err != nil {
			t.Fatalf("accepted spec %+v does not re-encode: %v", sp, err)
		}
		var stored ExploreSpec
		if err := json.Unmarshal(again, &stored); err != nil {
			t.Fatalf("re-encoded spec %s does not decode: %v", again, err)
		}
		if stored != sp {
			t.Fatalf("spec %s re-read as %+v, want %+v", again, stored, sp)
		}
		opts2, err := stored.Options(stored.Seed)
		if err != nil {
			t.Fatalf("re-encoded spec %s refused: %v", again, err)
		}
		if fp2 := cliutil.ExploreFingerprint(opts2); fp2 != fp {
			t.Fatalf("spec %s rebuilt to\n%s\nwant\n%s", again, fp2, fp)
		}
		// MultiConsensus stands up one consensus group per round before its
		// first step, so the run is kept to few rounds as well as few
		// processes.
		if sp.N > 8 || sp.Rounds > 16 {
			return
		}
		opts.Runs = min(opts.Runs, 8)
		opts.MinimizeLimit = 0
		opts.Base.Timeout = min(opts.Base.Timeout, time.Second)
		if _, err := explore.Explore(context.Background(), opts); err != nil {
			t.Fatalf("accepted spec %s does not explore: %v", data, err)
		}
	})
}
