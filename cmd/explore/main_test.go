package main

import (
	"context"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"weakestfd/internal/campaign"
	"weakestfd/internal/cliutil"
	explorepkg "weakestfd/internal/explore"
	"weakestfd/internal/scenario"
)

// exploreCLI runs the explore command in-process with args and returns its
// exit code.
func exploreCLI(t *testing.T, args ...string) int {
	t.Helper()
	code, _ := exploreStderr(t, args...)
	return code
}

// exploreStderr runs the explore command in-process with args and returns
// its exit code and what it wrote to stderr.
func exploreStderr(t *testing.T, args ...string) (int, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "stderr")
	stderr, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer stderr.Close()
	osArgs, cmdline, errOut := os.Args, flag.CommandLine, os.Stderr
	defer func() { os.Args, flag.CommandLine, os.Stderr = osArgs, cmdline, errOut }()
	os.Args = append([]string{"explore"}, args...)
	flag.CommandLine = flag.NewFlagSet(os.Args[0], flag.ContinueOnError)
	os.Stderr = stderr
	code := run()
	msg, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return code, string(msg)
}

func readReport(t *testing.T, path string) cliutil.ExploreReport {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rep cliutil.ExploreReport
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return rep
}

// TestFlagsMeanWhatSpecFilesMean: explore at its default flags and a
// campaign unit planned from a spec file holding the same explicit keys (and
// no rounds key) report one space fingerprint, which names the 8 default
// rounds of consensus/multi.
func TestFlagsMeanWhatSpecFilesMean(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "explore.json")
	if code := exploreCLI(t, "-proto", "consensus/multi", "-n", "3", "-seed", "5", "-runs", "16", "-minimize", "0", "-out", out); code != 0 {
		t.Fatalf("explore exited %d", code)
	}
	cli := readReport(t, out)

	spec := filepath.Join(dir, "spec.json")
	if err := os.WriteFile(spec, []byte(`{"proto":"consensus/multi","n":3,"seed":5,"runs":16,"minimize":0}`), 0o644); err != nil {
		t.Fatal(err)
	}
	sp := campaign.DefaultExploreSpec() // what campaign plan -explore reads the file over
	if err := cliutil.ReadSpec(spec, &sp); err != nil {
		t.Fatal(err)
	}
	cdir := filepath.Join(dir, "c")
	if err := campaign.Plan(cdir, &campaign.Manifest{Name: "c", Kind: campaign.KindExplore, Units: 1, Shards: 1, Explore: &sp}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := campaign.RunShard(context.Background(), campaign.RunOptions{Dir: cdir, Shard: 1}); err != nil {
		t.Fatal(err)
	}
	unit := readReport(t, campaign.UnitReportPath(cdir, 0))

	if cli.SpaceFingerprint != unit.SpaceFingerprint {
		t.Errorf("space fingerprints differ:\n explore %s\n    unit %s", cli.SpaceFingerprint, unit.SpaceFingerprint)
	}
	if !strings.HasSuffix(cli.SpaceFingerprint, ";rounds=8}") {
		t.Errorf("fingerprint does not name the 8 default rounds: %s", cli.SpaceFingerprint)
	}
	if cli.Runs != unit.Runs || cli.Novel != unit.Novel || len(cli.Corpus) != len(unit.Corpus) {
		t.Errorf("explore runs/novel/corpus %d/%d/%d, unit %d/%d/%d", cli.Runs, cli.Novel, len(cli.Corpus), unit.Runs, unit.Novel, len(unit.Corpus))
	}
}

// withoutTiming is a report with its wall-clock fields dropped: what two
// runs of the same exploration must agree on byte for byte.
func withoutTiming(t *testing.T, path string) string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var fields map[string]json.RawMessage
	if err := json.Unmarshal(data, &fields); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	for _, k := range []string{"generated_by", "elapsed_ms", "explore_runs_per_sec"} {
		delete(fields, k)
	}
	out, err := json.Marshal(fields)
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// TestReportByteStable is the -seed contract over the leader-crash consensus
// space, where the known ◇S failure lives:
//   - the same invocation with -journals writes the same report bytes apart
//     from the wall-clock fields, so dumping journals perturbs nothing; the
//     failure it finds is minimized and journaled, and the frontier table
//     reads ◇P censored at its ceiling of 200 and ◇S unsolvable;
//   - with -trace-signal, two invocations agree byte for byte apart from
//     timing, the trace dimension is part of the space fingerprint, and the
//     wider novelty space finds no fewer behaviour classes.
func TestReportByteStable(t *testing.T) {
	dir := t.TempDir()
	args := []string{"-proto", "consensus", "-n", "5", "-seed", "5", "-runs", "48", "-batch", "8",
		"-timeout", "150ms", "-minimize", "1", "-crashes", "0@0",
		"-frontier", "eventually-perfect:stabilize:200;eventually-strong:stabilize:200"}
	explore := func(name string, extra ...string) string {
		t.Helper()
		out := filepath.Join(dir, name)
		if code := exploreCLI(t, append(append(extra, args...), "-out", out)...); code != 0 {
			t.Fatalf("explore %v exited %d", extra, code)
		}
		return out
	}

	plain := explore("explore.json")
	jdir := filepath.Join(dir, "journals")
	if withoutTiming(t, plain) != withoutTiming(t, explore("journaled.json", "-journals", jdir)) {
		t.Errorf("-journals changed the explore report beyond timing")
	}
	rep := readReport(t, plain)
	if rep.Novel < 1 || rep.Novel != len(rep.Corpus) {
		t.Errorf("novel %d, corpus %d entries", rep.Novel, len(rep.Corpus))
	}
	if rep.FirstFailureRun == 0 || len(rep.Minimized) == 0 {
		t.Errorf("first failure at run %d, %d minimized: the known ◇S failure was missed or not minimized", rep.FirstFailureRun, len(rep.Minimized))
	}
	if len(rep.Frontier) != 2 {
		t.Fatalf("frontier table %+v, want the two axes", rep.Frontier)
	}
	if dp, ds := rep.Frontier[0], rep.Frontier[1]; !dp.Censored || dp.MaxPassing != 200 || !ds.Unsolvable {
		t.Errorf("frontier ◇P %+v, ◇S %+v: want ◇P censored at 200 and ◇S unsolvable", dp, ds)
	}
	if journals, _ := filepath.Glob(filepath.Join(jdir, "*.journal")); len(journals) == 0 {
		t.Errorf("-journals dumped no journal of the retained failures")
	}

	trace := explore("trace1.json", "-trace-signal")
	if withoutTiming(t, trace) != withoutTiming(t, explore("trace2.json", "-trace-signal")) {
		t.Errorf("-trace-signal explore reports differ beyond timing")
	}
	traced := readReport(t, trace)
	if traced.SpaceFingerprint == rep.SpaceFingerprint {
		t.Errorf("-trace-signal is not part of the space fingerprint %s", rep.SpaceFingerprint)
	}
	if traced.Novel < rep.Novel {
		t.Errorf("-trace-signal found %d behaviour classes, fewer than the %d without", traced.Novel, rep.Novel)
	}
}

// TestCorpusInSeedsFromMergedReport is the generational loop: explore
// -corpus-in reads a merged campaign report's corpus and explores exactly
// as an exploration seeded in-process with that corpus, which is not what
// an unseeded exploration does.
func TestCorpusInSeedsFromMergedReport(t *testing.T) {
	dir := t.TempDir()
	flags := []string{"-proto", "consensus", "-n", "3", "-runs", "16", "-batch", "8", "-minimize", "0", "-crashes", "0@0", "-classes", "omega-sigma,eventually-strong{stabilize:50}"}
	explore := func(name string, extra ...string) cliutil.ExploreReport {
		t.Helper()
		out := filepath.Join(dir, name)
		if code, msg := exploreStderr(t, append(append(extra, flags...), "-out", out)...); code != 0 {
			t.Fatalf("explore %v exited %d: %s", extra, code, msg)
		}
		return readReport(t, out)
	}

	// Generation one: two seeds, merged.
	var inputs []campaign.Input
	for _, seed := range []string{"1", "2"} {
		explore("gen1-"+seed+".json", "-seed", seed)
		path := filepath.Join(dir, "gen1-"+seed+".json")
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		in, err := campaign.ReadInput(path, data)
		if err != nil {
			t.Fatal(err)
		}
		inputs = append(inputs, in)
	}
	merged, err := campaign.MergeReports(inputs)
	if err != nil {
		t.Fatal(err)
	}
	if merged.Explore == nil || merged.Explore.Corpus == nil || len(merged.Explore.Corpus.Entries) < 2 {
		t.Fatalf("merged report carries no corpus to seed from: %+v", merged.Explore)
	}
	data, err := merged.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	mergedPath := filepath.Join(dir, "merged.json")
	if err := os.WriteFile(mergedPath, data, 0o644); err != nil {
		t.Fatal(err)
	}

	// Generation two, through the CLI and in-process.
	seeded := explore("gen2.json", "-seed", "3", "-corpus-in", mergedPath)
	spec := campaign.DefaultExploreSpec()
	spec.Proto, spec.N, spec.Runs, spec.Batch, spec.Minimize, spec.Crashes, spec.Classes =
		"consensus", 3, 16, 8, 0, "0@0", "omega-sigma,eventually-strong{stabilize:50}"
	opts, err := spec.Options(3)
	if err != nil {
		t.Fatal(err)
	}
	opts.SeedCorpus = merged.Explore.Corpus
	want, err := explorepkg.Explore(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := seeded.Canonical(); got != want.Canonical() {
		t.Fatalf("explore -corpus-in merged.json explored\n%s\nwant the in-process exploration seeded with the merged corpus\n%s", got, want.Canonical())
	}
	if unseeded := explore("unseeded.json", "-seed", "3"); unseeded.Canonical() == seeded.Canonical() {
		t.Fatalf("seeding from the merged report changed nothing:\n%s", seeded.Canonical())
	}
}

// TestCorpusInRefusals: -corpus-in refuses (exit 2), naming what it saw,
// every input that carries no corpus to seed from, a corpus newer than this
// build, a corpus found with another protocol or n, and entries whose
// configs the runtime would panic on.
func TestCorpusInRefusals(t *testing.T) {
	dir := t.TempDir()
	sweep, err := json.Marshal(cliutil.SweepReport{SchemaVersion: cliutil.ReportSchemaVersion, GridFingerprint: "grid{}", Proto: "consensus", N: 3, GridSize: 2, IndexHi: 2, Runs: 2, Passed: 2})
	if err != nil {
		t.Fatal(err)
	}
	in, err := campaign.ReadInput("sweep", sweep)
	if err != nil {
		t.Fatal(err)
	}
	mergedSweep, err := campaign.MergeReports([]campaign.Input{in})
	if err != nil {
		t.Fatal(err)
	}
	mergedSweepData, err := mergedSweep.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	bare, err := json.Marshal(explorepkg.CorpusState{SchemaVersion: explorepkg.CorpusVersion,
		Entries: []explorepkg.Entry{{Signature: "s", Parent: -1, Mutator: "base"}}})
	if err != nil {
		t.Fatal(err)
	}
	// Corpora of another search space: the refusal run below is
	// consensus/omega-sigma at n=3.
	entries := []explorepkg.Entry{{Signature: "s", Config: scenario.New(4, scenario.WithSeed(1)).Config(), Parent: -1, Mutator: "base"}}
	otherN, err := json.Marshal(cliutil.ExploreReport{SchemaVersion: cliutil.ReportSchemaVersion,
		Report: explorepkg.Report{Proto: "consensus/omega-sigma", N: 4, Budget: 1, Runs: 1, Novel: 1, Corpus: entries}})
	if err != nil {
		t.Fatal(err)
	}
	otherProto, err := json.Marshal(cliutil.ExploreReport{SchemaVersion: cliutil.ReportSchemaVersion,
		Report: explorepkg.Report{Proto: "qc/psi", N: 3, Budget: 1, Runs: 1, Novel: 1,
			Corpus: []explorepkg.Entry{{Signature: "s", Config: scenario.New(3, scenario.WithSeed(1)).Config(), Parent: -1, Mutator: "base"}}}})
	if err != nil {
		t.Fatal(err)
	}
	mergedOtherN, err := json.Marshal(campaign.Merged{SchemaVersion: cliutil.ReportSchemaVersion, Inputs: 1,
		Explore: &campaign.MergedExplore{Proto: "consensus/omega-sigma", N: 4, Reports: 1,
			Corpus: &explorepkg.CorpusState{SchemaVersion: explorepkg.CorpusVersion, Entries: entries}}})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ name, body, want string }{
		{"report at another n", string(otherN), "consensus/omega-sigma at n=4"},
		{"report of another protocol", string(otherProto), "qc/psi at n=3"},
		{"merged report at another n", string(mergedOtherN), "consensus/omega-sigma at n=4"},
		{"sweep report", string(sweep), "sweep report"},
		{"merged sweep report", string(mergedSweepData), "sweeps only"},
		{"empty corpus", `{"schema_version":1,"budget":16,"runs":16,"novel":0}`, "corpus is empty"},
		{"merged empty corpus", `{"schema_version":1,"inputs":1,"explore":{"corpus":{"schema_version":1}}}`, "corpus is empty"},
		{"corpus-out file", string(bare), "-corpus-out"},
		{"other JSON", `{"entrys":[1,2,3]}`, "neither a sweep report"},
		{"not JSON", `corpus`, "parse"},
		{"future report", `{"schema_version":99,"budget":1}`, "newer"},
		{"merged future corpus", `{"schema_version":1,"inputs":1,"explore":{"corpus":{"schema_version":2,"entries":[{"signature":"s"}]}}}`, "newer"},
		{"entry without n", `{"schema_version":1,"inputs":1,"explore":{"proto":"consensus/omega-sigma","n":3,"corpus":{"schema_version":1,"entries":[{"signature":"s"}]}}}`, "corpus entry 0: config (n=0"},
		{"entry crashing process 7", `{"schema_version":1,"budget":1,"proto":"consensus/omega-sigma","n":3,"corpus":[{"signature":"s","config":{"N":3,"Crashes":[{"P":7}]}}]}`, "crashes [{p7 0s}]"},
		{"entry dropping twice", `{"schema_version":1,"budget":1,"proto":"consensus/omega-sigma","n":3,"corpus":[{"signature":"s","config":{"N":3,"DropRate":2}}]}`, "drop rate 2,"},
	} {
		path := filepath.Join(dir, strings.ReplaceAll(c.name, " ", "-")+".json")
		if err := os.WriteFile(path, []byte(c.body), 0o644); err != nil {
			t.Fatal(err)
		}
		code, msg := exploreStderr(t, "-n", "3", "-runs", "4", "-corpus-in", path, "-out", filepath.Join(dir, "out.json"))
		if code != 2 || !strings.Contains(msg, c.want) {
			t.Errorf("-corpus-in with a %s exited %d, want 2 naming %q: %s", c.name, code, c.want, msg)
		}
	}
}
