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
)

// exploreCLI runs the explore command in-process with args and returns its
// exit code.
func exploreCLI(t *testing.T, args ...string) int {
	t.Helper()
	stderr, err := os.Create(filepath.Join(t.TempDir(), "stderr"))
	if err != nil {
		t.Fatal(err)
	}
	defer stderr.Close()
	osArgs, cmdline, errOut := os.Args, flag.CommandLine, os.Stderr
	defer func() { os.Args, flag.CommandLine, os.Stderr = osArgs, cmdline, errOut }()
	os.Args = append([]string{"explore"}, args...)
	flag.CommandLine = flag.NewFlagSet(os.Args[0], flag.ContinueOnError)
	os.Stderr = stderr
	return run()
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
	if rep.FirstFail == 0 || len(rep.Minimized) == 0 {
		t.Errorf("first failure at run %d, %d minimized: the known ◇S failure was missed or not minimized", rep.FirstFail, len(rep.Minimized))
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
