package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// Agreement, history and comparison: the three ways a figure is held
// against another figure. All three read their bounds from BENCHMARK.json.

// repeatSets is -repeat k: run the whole set k times, alternating workload
// order so that no workload always runs on a warm or a cold machine, print
// median and quartiles per metric × workload, and fail when an end-to-end
// spread exceeds that metric's bound, a check fails, or — traced — an exact
// count differs between two sets.
func repeatSets(spec *benchmarkSpec, set []workload, k int, traced bool, runOne func(workload) (*result, error)) int {
	values := map[string]map[string][]float64{} // workload → metric → one value per set
	exact := map[string]map[string]float64{}
	ok := true
	for i := 0; i < k; i++ {
		order := append([]workload(nil), set...)
		if i%2 == 1 {
			for a, b := 0, len(order)-1; a < b; a, b = a+1, b-1 {
				order[a], order[b] = order[b], order[a]
			}
		}
		for _, w := range order {
			res, err := runOne(w)
			if err != nil {
				return fail(fmt.Errorf("set %d, %s: %w", i+1, w.name, err))
			}
			fmt.Printf("set %d/%d  %-22s correct=%t failed=%d/%d\n", i+1, k, w.name, res.Correct, res.Failed, res.Attempted)
			for _, c := range res.Complaints {
				fmt.Printf("  ! %s\n", c)
			}
			ok = ok && res.Correct
			if values[w.name] == nil {
				values[w.name] = map[string][]float64{}
			}
			for name, m := range res.Metrics {
				values[w.name][name] = append(values[w.name][name], m.Value)
			}
			for name, v := range res.Exact {
				if prev, seen := exact[w.name][name]; seen && prev != v {
					fmt.Printf("  ! exact count %s differs between sets: %v then %v\n", name, prev, v)
					ok = false
				}
				if exact[w.name] == nil {
					exact[w.name] = map[string]float64{}
				}
				exact[w.name][name] = v
			}
		}
	}

	fmt.Printf("\n%-22s %-32s %12s %12s %12s %8s %6s\n", "workload", "metric", "q1", "median", "q3", "spread", "bound")
	for _, w := range set {
		for _, ms := range spec.listed(traced) {
			vs := values[w.name][ms.Name]
			if len(vs) == 0 {
				continue
			}
			q1, q2, q3 := quartiles(vs)
			sp := spread(vs)
			verdict := ""
			// setup_s is held to its bound by medians between sets of runs,
			// not by its spread: it depends on the state of the build cache.
			if !traced && ms.Bound > 0 && ms.Name != "setup_s" && sp > ms.Bound {
				verdict = "  SPREAD EXCEEDS BOUND"
				ok = false
			}
			bound := ""
			if ms.Bound > 0 {
				bound = fmt.Sprintf("%.2f", ms.Bound)
			}
			fmt.Printf("%-22s %-32s %12.6g %12.6g %12.6g %7.2f%% %6s%s\n", w.name, ms.Name, q1, q2, q3, 100*sp, bound, verdict)
		}
	}
	if !ok {
		fmt.Fprintln(os.Stderr, "bench: the sets do not agree within the bounds, or a check failed")
		return 1
	}
	return 0
}

// historyLine is one appended record of history.jsonl.
type historyLine struct {
	Commit    string                        `json:"commit"`
	GoVersion string                        `json:"go_version"`
	NProc     int                           `json:"nproc"`
	Seed      int64                         `json:"seed"`
	Scale     string                        `json:"scale"`
	Figures   map[string]map[string]float64 `json:"figures"` // workload → metric → median
}

// appendHistory adds one line for this run to the history file. The file is
// only ever opened for appending: the trajectory is kept, not overwritten.
func appendHistory(path string, doc *document) error {
	line := historyLine{Commit: doc.Commit, GoVersion: doc.GoVersion, NProc: doc.NProc, Seed: doc.Seed, Scale: doc.Scale,
		Figures: map[string]map[string]float64{}}
	for _, res := range doc.Results {
		figs := map[string]float64{"failed_share": res.FailedShare}
		for name, m := range res.Metrics {
			figs[name] = m.Value
		}
		line.Figures[res.Workload] = figs
	}
	data, err := json.Marshal(line)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(data, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Verdicts of -compare, one per metric × workload.
const (
	improved   = "improved"
	unchanged  = "unchanged"
	unresolved = "unresolved"
	regressed  = "regressed"
)

// judge applies a metric's bound to a base and a changed measurement of it.
// Regressed: the median worsened by more than the bound. Improved: every
// sample of the change reads better than every sample of the base.
// Unresolved: neither, and one side's own range is wider than the bound, so
// "no change" cannot be told from a change of the bound's size. Otherwise
// unchanged.
func judge(ms metricSpec, base, cur metric) string {
	if ms.worse(base.Value, cur.Value) > ms.Bound {
		return regressed
	}
	if ms.Better == "higher" && cur.Min > base.Max || ms.Better != "higher" && cur.Max < base.Min {
		return improved
	}
	width := func(m metric) float64 {
		if m.Value == 0 {
			return 0
		}
		return (m.Max - m.Min) / m.Value
	}
	if width(base) > ms.Bound || width(cur) > ms.Bound {
		return unresolved
	}
	return unchanged
}

// compareFiles is -compare: one row per end-to-end metric × workload of two
// result files, judged by the bounds. It exits non-zero on a regression or
// a failed check on the changed side.
func compareFiles(spec *benchmarkSpec, basePath, curPath string) int {
	load := func(path string) (map[string]*result, error) {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var doc document
		if err := json.Unmarshal(data, &doc); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		byName := map[string]*result{}
		for _, r := range doc.Results {
			byName[r.Workload] = r
		}
		return byName, nil
	}
	base, err := load(basePath)
	if err != nil {
		return fail(err)
	}
	cur, err := load(curPath)
	if err != nil {
		return fail(err)
	}
	names := make([]string, 0, len(base))
	for name := range base {
		if _, ok := cur[name]; ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	bad := false
	fmt.Printf("%-22s %-16s %12s %12s %9s %6s  %s\n", "workload", "metric", "base", "change", "worse by", "bound", "verdict")
	for _, name := range names {
		b, c := base[name], cur[name]
		for _, ms := range spec.EndToEnd {
			bm, ok1 := b.Metrics[ms.Name]
			cm, ok2 := c.Metrics[ms.Name]
			if !ok1 || !ok2 {
				continue
			}
			v := judge(ms, bm, cm)
			bad = bad || v == regressed
			fmt.Printf("%-22s %-16s %12.6g %12.6g %8.2f%% %6.2f  %s\n", name, ms.Name, bm.Value, cm.Value, 100*ms.worse(bm.Value, cm.Value), ms.Bound, v)
		}
		if c.Failed > b.Failed || !c.Correct {
			fmt.Printf("%-22s %-16s %12d %12d %9s %6s  %s\n", name, "failed", b.Failed, c.Failed, "", "0", regressed)
			bad = true
		}
	}
	if bad {
		return 1
	}
	return 0
}
