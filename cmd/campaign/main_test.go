package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"weakestfd/internal/campaign"
	"weakestfd/internal/cliutil"
	"weakestfd/internal/scenario"
)

// campaignCLI runs the campaign command in-process and returns its exit
// code and what it wrote to stderr.
func campaignCLI(t *testing.T, args ...string) (int, string) {
	t.Helper()
	stderr, err := os.Create(filepath.Join(t.TempDir(), "stderr"))
	if err != nil {
		t.Fatal(err)
	}
	defer stderr.Close()
	osArgs, errOut := os.Args, os.Stderr
	defer func() { os.Args, os.Stderr = osArgs, errOut }()
	os.Args = append([]string{"campaign"}, args...)
	os.Stderr = stderr
	code := run()
	os.Stderr = errOut
	msg, err := os.ReadFile(stderr.Name())
	if err != nil {
		t.Fatal(err)
	}
	return code, string(msg)
}

// mustCLI runs the campaign command and fails the test unless it exits 0.
func mustCLI(t *testing.T, args ...string) {
	t.Helper()
	if code, msg := campaignCLI(t, args...); code != 0 {
		t.Fatalf("campaign %s: exit %d: %s", strings.Join(args, " "), code, msg)
	}
}

func writeFile(t *testing.T, dir, name, body string) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func readJSON(t *testing.T, path string, v any) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, v); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
}

// sweepReport writes the report `sweep -grid file [-shard k/m]` writes,
// built as cmd/sweep builds it: the file read over the default table, and
// the shard applied on top.
func sweepReport(t *testing.T, dir, name string, sp cliutil.GridSpec) string {
	t.Helper()
	base, grid, p, err := cliutil.BuildGrid(sp)
	if err != nil {
		t.Fatalf("build grid %+v: %v", sp, err)
	}
	rep := cliutil.NewSweepReport(sp, base, grid, p, scenario.Sweep(context.Background(), base, grid, p))
	path := filepath.Join(dir, name)
	if err := cliutil.WriteJSON(path, rep); err != nil {
		t.Fatal(err)
	}
	return path
}

// gridOf reads a grid file over the default table, as `sweep -grid` does.
func gridOf(t *testing.T, path, shard string) cliutil.GridSpec {
	t.Helper()
	sp := cliutil.DefaultGridSpec()
	if err := cliutil.ReadSpec(path, &sp); err != nil {
		t.Fatal(err)
	}
	sp.Shard = shard
	return sp
}

// TestGridPlanRunsWhatSweepRuns: a grid file that omits rounds, keep, n and
// timeout means the same runs to `campaign plan -grid` plus run and merge as
// to `sweep -grid`: the same fingerprint (naming the 8 default rounds), the
// same counts and the same retained failures.
func TestGridPlanRunsWhatSweepRuns(t *testing.T) {
	for _, tc := range []struct{ name, spec string }{
		{"defaults", `{"proto":"consensus/multi","seeds":"1-4"}`},
		// A short timeout in the file makes ◇S with a crashed leader fail,
		// so the retained failures are compared too.
		{"failures", `{"proto":"consensus/multi","seeds":"1-3","detectors":"eventually-strong{stabilize:50}","crashes":"0@0","timeout":"50ms"}`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			file := writeFile(t, dir, "grid.json", tc.spec)
			var want cliutil.SweepReport
			readJSON(t, sweepReport(t, dir, "sweep.json", gridOf(t, file, "")), &want)

			cdir := filepath.Join(dir, "c")
			mustCLI(t, "plan", "-dir", cdir, "-grid", file, "-units", "2")
			mustCLI(t, "run", "-dir", cdir)
			mustCLI(t, "merge", "-dir", cdir, "-out", filepath.Join(dir, "merged.json"))
			var got campaign.Merged
			readJSON(t, filepath.Join(dir, "merged.json"), &got)

			s := got.Sweep
			if s == nil || !s.Complete {
				t.Fatalf("merged sweep incomplete: %+v", s)
			}
			if !strings.Contains(want.GridFingerprint, ";rounds=8}") {
				t.Errorf("sweep fingerprint does not name the 8 default rounds: %s", want.GridFingerprint)
			}
			if s.GridFingerprint != want.GridFingerprint {
				t.Errorf("fingerprints differ:\n campaign %s\n    sweep %s", s.GridFingerprint, want.GridFingerprint)
			}
			if s.Runs != want.Runs || s.Passed != want.Passed || s.Faulted != want.Faulted {
				t.Errorf("campaign runs/passed/faulted %d/%d/%d, sweep %d/%d/%d", s.Runs, s.Passed, s.Faulted, want.Runs, want.Passed, want.Faulted)
			}
			fingerprints := func(fs []cliutil.FailureReport) (out []string) {
				for _, f := range fs {
					out = append(out, f.Fingerprint)
				}
				return out
			}
			if g, w := strings.Join(fingerprints(s.Failures), "\n"), strings.Join(fingerprints(want.Failures), "\n"); g != w {
				t.Errorf("failure fingerprints differ:\n campaign %q\n    sweep %q", g, w)
			}
			if tc.name == "failures" && len(want.Failures) == 0 {
				t.Errorf("the failing grid retained no failures")
			}
		})
	}
}

// TestMergeRefusesDifferentRuns: reports of different work never merge,
// even where their grids agree — a multi-instance sweep at 8 rounds against
// one at 2, a twopc sweep with coordinator 0 against one with coordinator 3,
// and a sweep shard against a campaign unit planned with the zero-rounds
// reading a grid file once got from campaign plan.
func TestMergeRefusesDifferentRuns(t *testing.T) {
	dir := t.TempDir()
	multi := func(rounds int, shard string) cliutil.GridSpec {
		return cliutil.GridSpec{Proto: "consensus/multi", N: 3, Rounds: rounds, Seeds: "1-4", Timeout: "30s", Keep: 8, Shard: shard}
	}
	twopc := func(coordinator int, shard string) cliutil.GridSpec {
		return cliutil.GridSpec{Proto: "twopc", N: 4, Rounds: 8, Coordinator: coordinator, Seeds: "1-4", Timeout: "30s", Keep: 8, Shard: shard}
	}
	file := writeFile(t, dir, "grid.json", `{"proto":"consensus/multi","n":3,"seeds":"1-4","timeout":"5s"}`)

	// The campaign unit covering the second half of the file's grid, once
	// as a zero-based reading of the file plans it and once as campaign
	// plan does.
	zeroRead := cliutil.GridSpec{}
	if err := cliutil.ReadSpec(file, &zeroRead); err != nil {
		t.Fatal(err)
	}
	stale := filepath.Join(dir, "stale")
	if err := campaign.Plan(stale, &campaign.Manifest{Name: "stale", Kind: campaign.KindSweep, Units: 2, Shards: 1, Grid: &zeroRead}); err != nil {
		t.Fatal(err)
	}
	mustCLI(t, "run", "-dir", stale)
	planned := filepath.Join(dir, "planned")
	mustCLI(t, "plan", "-dir", planned, "-grid", file, "-units", "2")
	mustCLI(t, "run", "-dir", planned)

	shard := sweepReport(t, dir, "file-1.json", gridOf(t, file, "1/2"))
	for _, tc := range []struct {
		name string
		a, b string
	}{
		{"rounds", sweepReport(t, dir, "r8.json", multi(8, "1/2")), sweepReport(t, dir, "r2.json", multi(2, "2/2"))},
		{"coordinator", sweepReport(t, dir, "c0.json", twopc(0, "1/2")), sweepReport(t, dir, "c3.json", twopc(3, "2/2"))},
		{"zero-rounds unit", shard, campaign.UnitReportPath(stale, 1)},
	} {
		code, msg := campaignCLI(t, "merge", "-out", filepath.Join(dir, "m.json"), tc.a, tc.b)
		if code != 2 || !strings.Contains(msg, "fingerprint mismatch") {
			t.Errorf("%s: merge exited %d, want 2 naming the fingerprint mismatch: %s", tc.name, code, msg)
		}
	}
	mustCLI(t, "merge", "-out", filepath.Join(dir, "m.json"), shard, campaign.UnitReportPath(planned, 1))
	var m campaign.Merged
	readJSON(t, filepath.Join(dir, "m.json"), &m)
	if m.Sweep == nil || !m.Sweep.Complete || m.Sweep.Runs != 4 {
		t.Fatalf("sweep shard plus the planned unit: %+v, want a complete 4-run merge", m.Sweep)
	}
}

// TestExplorePlanReadsExploreDefaults: an explore spec file is read over
// cmd/explore's defaults, its manifest lists the resolved keys, and its
// units report the space fingerprint cmd/explore reports for the same
// settings — which names the 8 default rounds of consensus/multi.
func TestExplorePlanReadsExploreDefaults(t *testing.T) {
	dir := t.TempDir()
	file := writeFile(t, dir, "explore.json", `{"proto":"consensus/multi","n":3,"seed":5,"runs":16,"minimize":0}`)
	cdir := filepath.Join(dir, "c")
	mustCLI(t, "plan", "-dir", cdir, "-explore", file, "-units", "1")
	mustCLI(t, "run", "-dir", cdir)

	var m campaign.Manifest
	readJSON(t, filepath.Join(cdir, "manifest.json"), &m)
	want := campaign.DefaultExploreSpec()
	want.Proto, want.N, want.Seed, want.Runs, want.Minimize = "consensus/multi", 3, 5, 16, 0
	if m.Explore == nil || *m.Explore != want {
		t.Fatalf("manifest holds %+v, want the resolved spec %+v", m.Explore, want)
	}
	opts, err := want.Options(want.Seed)
	if err != nil {
		t.Fatal(err)
	}
	var unit cliutil.ExploreReport
	readJSON(t, campaign.UnitReportPath(cdir, 0), &unit)
	if fp := cliutil.ExploreFingerprint(opts); unit.SpaceFingerprint != fp {
		t.Errorf("unit fingerprint %s, want %s", unit.SpaceFingerprint, fp)
	}
	if !strings.HasSuffix(unit.SpaceFingerprint, ";rounds=8}") {
		t.Errorf("unit fingerprint does not name the 8 default rounds: %s", unit.SpaceFingerprint)
	}
}

// TestPlanRefusesCaseVariantKeys: a spec key spelled in another letter case
// than its field's tag is refused at plan time, naming the key, in either
// spec kind — encoding/json alone would read it as the field.
func TestPlanRefusesCaseVariantKeys(t *testing.T) {
	dir := t.TempDir()
	for i, c := range []struct{ kind, body, key string }{
		{"-grid", `{"PROTO":"qc","N":3,"Seeds":"1-2"}`, `"N"`},
		{"-grid", `{"proto":"consensus","n":3,"seeds":"1-2","Timeout":"5s"}`, `"Timeout"`},
		{"-explore", `{"proto":"consensus","n":3,"Runs":4}`, `"Runs"`},
	} {
		file := writeFile(t, dir, "spec.json", c.body)
		code, msg := campaignCLI(t, "plan", "-dir", filepath.Join(dir, strconv.Itoa(i)), c.kind, file, "-units", "1")
		if code != 2 || !strings.Contains(msg, c.key) {
			t.Errorf("plan %s %s exited %d, want 2 naming %s: %s", c.kind, c.body, code, c.key, msg)
		}
	}
}

// TestPlanRefusesValuesTheRuntimeCannotHonour: a grid drop rate outside
// [0, 1] and a negative timeout in either spec kind are refused at plan
// time, naming the key, not by a panic or a second fingerprint in runshard.
func TestPlanRefusesValuesTheRuntimeCannotHonour(t *testing.T) {
	dir := t.TempDir()
	for i, c := range []struct{ kind, body, key string }{
		{"-grid", `{"proto":"consensus","n":3,"seeds":"1-2","drop":2}`, "drop:"},
		{"-grid", `{"proto":"consensus","n":3,"seeds":"1-2","drop":-1}`, "drop:"},
		{"-grid", `{"proto":"consensus","n":3,"seeds":"1-2","timeout":"-1s"}`, "timeout:"},
		{"-explore", `{"proto":"consensus","n":3,"runs":4,"timeout":"-1s"}`, "timeout:"},
	} {
		file := writeFile(t, dir, "spec.json", c.body)
		code, msg := campaignCLI(t, "plan", "-dir", filepath.Join(dir, strconv.Itoa(i)), c.kind, file, "-units", "1")
		if code != 2 || !strings.Contains(msg, c.key) || strings.Contains(msg, "goroutine") {
			t.Errorf("plan %s %s exited %d, want 2 naming %s: %s", c.kind, c.body, code, c.key, msg)
		}
	}
}
