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
