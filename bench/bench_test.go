package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestQuartilesMatchPython(t *testing.T) {
	// Expected values are statistics.quantiles(values, n=4) of Python 3.
	cases := []struct {
		values []float64
		want   [3]float64
	}{
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{1, 2, 4}, [3]float64{1, 2, 4}},
		{[]float64{3, 1, 4, 1, 5, 9, 2, 6}, [3]float64{1.25, 3.5, 5.75}},
		{[]float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}, [3]float64{27.5, 55, 82.5}},
		{[]float64{2.5}, [3]float64{2.5, 2.5, 2.5}},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.values)
		if got := [3]float64{q1, q2, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.values, got, c.want)
		}
	}
	if got, want := spread([]float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}), 1.0; got != want {
		t.Errorf("spread = %v, want %v", got, want)
	}
	if got := percentile([]float64{4, 1, 3, 2, 5}, 0.5); got != 3 {
		t.Errorf("percentile p50 = %v, want 3", got)
	}
}

func TestCanonicalReport(t *testing.T) {
	a := `{"runs": 3, "passed": 3, "elapsed_ms": 12.5, "runs_per_sec": 240.0, "generated_by": "sweep", "go_version": "go1.24",
		"grid_fingerprint": "ab", "big": 12345678901234567890, "detectors": [{"class": "perfect", "mean": 0.10}]}`
	b := `{"go_version": "go1.99", "detectors": [{"mean": 0.10, "class": "perfect"}], "big": 12345678901234567890,
		"grid_fingerprint": "ab", "passed": 3, "runs": 3, "elapsed_ms": 99, "runs_per_sec": 1, "generated_by": "bench (in-process)"}`
	ca, err := canonicalReport([]byte(a))
	if err != nil {
		t.Fatal(err)
	}
	cb, err := canonicalReport([]byte(b))
	if err != nil {
		t.Fatal(err)
	}
	if string(ca) != string(cb) {
		t.Errorf("reports that differ only in volatile fields and key order canonicalise apart:\n%s\n%s", ca, cb)
	}
	for _, k := range volatileReportKeys {
		if strings.Contains(string(ca), k) {
			t.Errorf("canonical form keeps volatile key %s: %s", k, ca)
		}
	}
	for _, kept := range []string{`"big":12345678901234567890`, `"mean":0.10`, `"grid_fingerprint":"ab"`} {
		if !strings.Contains(string(ca), kept) {
			t.Errorf("canonical form lost %s: %s", kept, ca)
		}
	}
	c, err := canonicalReport([]byte(strings.Replace(a, `"passed": 3`, `"passed": 2`, 1)))
	if err != nil {
		t.Fatal(err)
	}
	if string(c) == string(ca) {
		t.Error("a changed verdict count does not change the canonical form")
	}
	if _, err := canonicalReport([]byte("not json")); err == nil {
		t.Error("garbage canonicalised without an error")
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, Name: "scenario.Sweep", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "scenario.Run", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "scenario.Run", Start: 20, End: 50},  // overlaps span 2: the union counts
		{ID: 4, Parent: 1, Name: "scenario.Run", Start: 90, End: 120}, // clipped to the parent
		{ID: 5, Parent: 3, Name: "check.CheckConsensus", Start: 40, End: 45},
	}
	self := selfTimes(spans)
	for id, want := range map[int]int64{1: 50, 2: 20, 3: 25, 4: 30, 5: 5} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}
	if got := layerOf("scenario.Sweep"); got != "scenario" {
		t.Errorf("layerOf = %q", got)
	}
}

func TestTracerRecordsParentsAndNilIsSilent(t *testing.T) {
	var off *tracer
	off.end(off.begin(0, "net.NewNetwork"))
	off.add(0, "scenario.Run", 5)
	if got := off.snapshot(); got != nil {
		t.Errorf("a nil tracer recorded %v", got)
	}
	tr := newTracer("w/seed1")
	root := tr.begin(0, "scenario.Sweep")
	tr.add(root, "scenario.Run", 10)
	tr.end(root)
	spans := tr.snapshot()
	if len(spans) != 2 || spans[1].Parent != spans[0].ID || spans[0].Workload != "w/seed1" || spans[0].End < spans[1].End {
		t.Errorf("unexpected spans %+v", spans)
	}
	path := filepath.Join(t.TempDir(), "out", "spans.jsonl")
	if err := writeSpans(path, spans); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	var back span
	if len(lines) != 2 || json.Unmarshal([]byte(lines[1]), &back) != nil || back != spans[1] {
		t.Errorf("span dump does not read back: %q", data)
	}
}

// TestAttributeSumsToOne: whatever the cost model explains, the shares —
// share.unattributed among them — add up to the traced pass's wall time.
func TestAttributeSumsToOne(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "cliutil.BuildGrid", Start: 0, End: 1000},
		{ID: 2, Name: "scenario.Sweep", Start: 1000, End: 101000},
		{ID: 3, Parent: 2, Name: "scenario.Run", Start: 1000, End: 91000},
		{ID: 4, Parent: 2, Name: "scenario.Run", Start: 1000, End: 91000},
		{ID: 5, Name: "cliutil.WriteJSON", Start: 101000, End: 103000},
	}
	run := runStat{wall: 90000, par: 2, n: 4, proto: "consensus", msgs: 10, timers: 4, grants: 6, events: 14}
	model := &costModel{
		unit: map[string]metric{
			"net.send_deliver_ns.d100": {Value: 400}, "net.ticker_rearm_ns": {Value: 2000}, "net.grant_ns": {Value: 600},
			"net.trace_hash_ns_per_record": {Value: 30},
		},
		sized: map[string]float64{"standup/4": 5000, "build//4": 200, "check/consensus/4": 1000},
	}
	share := attribute(spans, []runStat{run, run}, 0, model)
	total := 0.0
	for _, layer := range shareLayers {
		total += share[layer]
	}
	if math.Abs(total-1) > 1e-9 {
		t.Errorf("shares sum to %v, want 1: %v", total, share)
	}
	if len(share) > len(shareLayers) {
		t.Errorf("a layer outside shareLayers got a share: %v", share)
	}
	// Sweep wall 100000 with two runs of 90000 on two workers: 10000 of it
	// is the fan-out's own, of a total of 103000.
	if want := 10000.0 / 103000; math.Abs(share["scenario"]-want) > 1e-9 {
		t.Errorf("share.scenario = %v, want %v", share["scenario"], want)
	}
	// Per run: 5000 stand-up + 20 records hashed at 30 + 10 messages at 400
	// + 4 ticker fires at 2000 + (6-4) grants at 600 = 18800, on two workers twice.
	if want := 18800.0 / 103000; math.Abs(share["net"]-want) > 1e-9 {
		t.Errorf("share.net = %v, want %v", share["net"], want)
	}
	if share["unattributed"] <= 0 {
		t.Errorf("share.unattributed = %v, want the positive remainder", share["unattributed"])
	}
}

// findMetric returns the named metric's spec from a list.
func findMetric(list []metricSpec, name string) (metricSpec, bool) {
	for _, m := range list {
		if m.Name == name {
			return m, true
		}
	}
	return metricSpec{}, false
}

// TestBenchmarkSpec holds BENCHMARK.json to the contract's shape rules and
// to the program: same workloads, every end-to-end metric the program
// reports, setup_s among them.
func TestBenchmarkSpec(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	spec, err := loadSpec(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Paths) != 1 || spec.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", spec.Paths)
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("run_seconds = %d, want 1..60", spec.RunSeconds)
	}
	used := map[string]bool{}
	name := func(kind, n string) {
		if !nameRule.MatchString(n) {
			t.Errorf("%s name %q breaks the rule: letters, digits, _ . -, at most 64, starting with a letter or digit", kind, n)
		}
		if used[n] {
			t.Errorf("name %q is used twice", n)
		}
		used[n] = true
	}
	for _, bad := range []string{"", "_x", "a b", "a/b", "µs", strings.Repeat("a", 65)} {
		if nameRule.MatchString(bad) {
			t.Errorf("the name rule accepts %q", bad)
		}
	}

	all := workloads(scaleFull)
	if len(spec.Workloads) != len(all) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(spec.Workloads), len(all))
	}
	for i, w := range spec.Workloads {
		name("workload", w.Name)
		if w.Name != all[i].name || w.Why != all[i].why {
			t.Errorf("workload %d is %q (%q) in BENCHMARK.json, %q (%q) in the program", i, w.Name, w.Why, all[i].name, all[i].why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	smoke := workloads(scaleSmoke)
	for i := range all {
		if smoke[i].name != all[i].name {
			t.Errorf("the smoke scale drops or renames workload %s", all[i].name)
		}
	}

	metrics := func(kind string, list []metricSpec, bounded bool) {
		for _, m := range list {
			name(kind+" metric", m.Name)
			if !unitRule.MatchString(m.Unit) {
				t.Errorf("%s: unit %q breaks the rule", m.Name, m.Unit)
			}
			if m.Better != "lower" && m.Better != "higher" {
				t.Errorf("%s: better = %q", m.Name, m.Better)
			}
			if bounded && (m.Bound <= 0 || m.Bound > 0.25) {
				t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
			}
			if !bounded && m.Bound != 0 {
				t.Errorf("%s: a per-layer metric has no bound", m.Name)
			}
		}
	}
	metrics("end-to-end", spec.EndToEnd, true)
	metrics("per-layer", spec.PerLayer, false)
	if len(spec.EndToEnd) < 1 || len(spec.EndToEnd) > 16 || len(spec.PerLayer) < 1 || len(spec.PerLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics", len(spec.EndToEnd), len(spec.PerLayer))
	}
	setup, ok := findMetric(spec.EndToEnd, "setup_s")
	if !ok || setup.Unit != "s" || setup.Better != "lower" {
		t.Errorf("setup_s must be an end-to-end metric in s, lower better: %+v", setup)
	}
	for _, m := range spec.EndToEnd {
		if m.Bound > setup.Bound {
			t.Errorf("%s has a larger bound than setup_s", m.Name)
		}
	}
	for _, layer := range shareLayers {
		if _, ok := findMetric(spec.PerLayer, "share."+layer); !ok {
			t.Errorf("share.%s is not listed in per_layer", layer)
		}
	}
	for n := range exactUnits {
		if m, ok := findMetric(spec.PerLayer, n); !ok || m.Unit != exactUnits[n] {
			t.Errorf("exact count %s: listed %t with unit %q, the program reports %q", n, ok, m.Unit, exactUnits[n])
		}
	}
}

func TestPlanIsAFunctionOfTheSeed(t *testing.T) {
	if seedBase(1) != 0 || seedBase(2) != 1000 || seedBase(0) < 0 || seedBase(-5) < 0 {
		t.Errorf("seedBase: %d %d %d %d", seedBase(1), seedBase(2), seedBase(0), seedBase(-5))
	}
	dir := t.TempDir()
	for _, w := range workloads(scaleSmoke) {
		// inputs is everything the CLIs see: the argv lists and the generated
		// explore spec file.
		inputs := func(seed int64) (*plan, string) {
			p, err := makePlan(w, seed, 2, dir)
			if err != nil {
				t.Fatal(err)
			}
			var sb strings.Builder
			for _, inv := range p.invocations {
				sb.WriteString(inv.tool + " " + strings.Join(inv.args, " ") + "\n")
			}
			if spec, err := os.ReadFile(filepath.Join(dir, "in", "explore-spec.json")); err == nil && w.campaign != nil {
				sb.Write(spec)
			}
			return p, sb.String()
		}
		a, first := inputs(7)
		_, again := inputs(7)
		_, other := inputs(8)
		if first != again {
			t.Errorf("%s: the same seed gives different invocations", w.name)
		}
		if first == other {
			t.Errorf("%s: another seed gives the same invocations", w.name)
		}
		if a.units() < 1 {
			t.Errorf("%s: no work units", w.name)
		}
		// Backstop guard: whatever executes scenario runs carries an
		// explicit timeout (the campaign's sits in its spec file).
		for _, inv := range a.invocations {
			runs := inv.tool == "sweep" || inv.tool == "replay" && inv.args[0] == "-record"
			if runs && !strings.Contains(" "+strings.Join(inv.args, " ")+" ", " -timeout ") {
				t.Errorf("%s: %s %v has no -timeout", w.name, inv.tool, inv.args)
			}
		}
		if w.campaign != nil && w.campaign.spec.Timeout == "" {
			t.Errorf("%s: the explore spec has no timeout", w.name)
		}
	}
	four := workloads(scaleFull)[0]
	if got, want := four.sweeps[0].points(), scaleFull.consensus*3*3; got != want {
		t.Errorf("grid points of the consensus leg = %d, want %d (braces do not split the detector axis)", got, want)
	}
}

func TestJudge(t *testing.T) {
	rate := metricSpec{Name: "runs_per_s", Better: "higher", Bound: 0.08}
	cpu := metricSpec{Name: "cpu_s_per_krun", Better: "lower", Bound: 0.06}
	m := func(v, lo, hi float64) metric { return metric{Value: v, Min: lo, Max: hi, Samples: 3} }
	cases := []struct {
		ms        metricSpec
		base, cur metric
		want      string
	}{
		{rate, m(100, 99, 101), m(91, 90, 92), regressed},
		{rate, m(100, 99, 101), m(110, 109, 111), improved},
		{rate, m(100, 99, 101), m(100.5, 99.5, 101.5), unchanged},
		{rate, m(100, 90, 110), m(101, 99, 102), unresolved},
		{cpu, m(10, 9.9, 10.1), m(10.7, 10.6, 10.8), regressed},
		{cpu, m(10, 9.9, 10.1), m(9, 8.9, 9.1), improved},
		{cpu, m(10, 9.9, 10.1), m(10.2, 10.0, 10.3), unchanged},
	}
	for _, c := range cases {
		if got := judge(c.ms, c.base, c.cur); got != c.want {
			t.Errorf("judge(%s, %v → %v) = %s, want %s", c.ms.Name, c.base.Value, c.cur.Value, got, c.want)
		}
	}
}

func TestHistoryIsAppendOnly(t *testing.T) {
	path := filepath.Join(t.TempDir(), "history.jsonl")
	doc := &document{Commit: "abc", GoVersion: "go1.24", NProc: 2, Seed: 1, Scale: "full", Results: []*result{{
		Workload: "consensus_n200", FailedShare: 0, Metrics: map[string]metric{"runs_per_s": {Value: 22, Unit: "1/s"}},
	}}}
	for i := 0; i < 2; i++ {
		if err := appendHistory(path, doc); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) != 2 || lines[0] != lines[1] {
		t.Fatalf("two appends left %d lines", len(lines))
	}
	var line historyLine
	if err := json.Unmarshal([]byte(lines[0]), &line); err != nil {
		t.Fatal(err)
	}
	if line.Commit != "abc" || line.Figures["consensus_n200"]["runs_per_s"] != 22 {
		t.Errorf("history line %+v", line)
	}
	if _, ok := line.Figures["consensus_n200"]["failed_share"]; !ok {
		t.Error("history line lacks failed_share")
	}
}

func TestGoldenKeepsOtherScales(t *testing.T) {
	dir := t.TempDir()
	for _, w := range [][2]string{{"full", "aa"}, {"smoke", "bb"}, {"full", "cc"}} {
		if err := writeGolden(dir, "w", w[0], w[1]); err != nil {
			t.Fatal(err)
		}
	}
	full, _ := readGolden(dir, "w", "full")
	smoke, _ := readGolden(dir, "w", "smoke")
	none, err := readGolden(dir, "other", "full")
	if full != "cc" || smoke != "bb" || none != "" || err != nil {
		t.Errorf("golden digests: full %q smoke %q missing %q (%v)", full, smoke, none, err)
	}
}

// TestSmoke runs all five workloads end to end at the smoke scale — every
// invocation, artifact, check and golden digest — over CLIs built into a
// temporary directory.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the CLIs")
	}
	e, err := newEnv()
	if err != nil {
		t.Fatal(err)
	}
	e.buildDir = t.TempDir()
	spec, err := loadSpec(e.root)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads(scaleSmoke) {
		res, err := e.runEndToEnd(context.Background(), w, runOptions{seed: defaultSeed, scale: scaleSmoke, minRounds: 1, setups: 1})
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Errorf("%s: correct=%t failed=%d/%d: %v", w.name, res.Correct, res.Failed, res.Attempted, res.Complaints)
		}
		for _, ms := range spec.EndToEnd {
			if m, ok := res.Metrics[ms.Name]; !ok || !(m.Value > 0) || m.Unit != ms.Unit {
				t.Errorf("%s: end-to-end metric %s reported as %+v (listed unit %q)", w.name, ms.Name, m, ms.Unit)
			}
		}
	}
}
