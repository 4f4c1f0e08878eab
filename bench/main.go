// Command bench is the repository's benchmark: five workloads of CLI
// invocations measured end to end, and a traced run that repeats a
// workload's work in-process with a span around every call into a layer.
//
// The benchmark driver runs it through bench/run.sh as
//
//	bash bench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// and reads the last line of standard output: one JSON object with the keys
// correct, attempted, failed and metrics. By hand (from bench/, or through
// run.sh from the checkout root):
//
//	go run .                       every workload, end to end
//	go run . -trace 1              every workload, traced: per-layer metrics
//	go run . -repeat 3             agreement mode: spreads against the bounds
//	go run . -append               also append the figures to history.jsonl
//	go run . -compare a.json b.json
//	go run . -update-golden        re-record the output digests (seed 1)
//	go run . -smoke                a fiftieth of the size, one round
//
// See README.md for what each workload and metric is for.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
)

func main() {
	os.Exit(run())
}

type options struct {
	workload     string
	seed         int64
	seconds      float64
	trace        int
	smoke        bool
	repeat       int
	appendHist   bool
	compare      bool
	updateGolden bool
	out          string
}

func run() int {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload to run (default: all five)")
	flag.Int64Var(&o.seed, "seed", defaultSeed, "input seed: shifts every seed range and the explore master seed")
	flag.Float64Var(&o.seconds, "seconds", -1, "how long one run measures (default: run_seconds of BENCHMARK.json; 0 with -smoke)")
	flag.IntVar(&o.trace, "trace", 0, "0: end-to-end run over the built CLIs; 1: traced in-process run, per-layer metrics")
	flag.BoolVar(&o.smoke, "smoke", false, "run at about a fiftieth of the size, one round per workload")
	flag.IntVar(&o.repeat, "repeat", 0, "agreement mode: run the set k times alternating workload order and hold the spreads to the bounds")
	flag.BoolVar(&o.appendHist, "append", false, "append this run's end-to-end figures to bench/history.jsonl")
	flag.BoolVar(&o.compare, "compare", false, "compare two result files (-o output): bench -compare a.json b.json")
	flag.BoolVar(&o.updateGolden, "update-golden", false, "record the output digests of this run as golden (default seed only)")
	flag.StringVar(&o.out, "o", "", "also write the full results (medians, ranges, sample counts) to this JSON file")
	flag.Parse()

	e, err := newEnv()
	if err != nil {
		return fail(err)
	}
	spec, err := loadSpec(e.root)
	if err != nil {
		return fail(err)
	}
	if o.compare {
		if flag.NArg() != 2 {
			return fail(fmt.Errorf("-compare wants two result files, got %d", flag.NArg()))
		}
		return compareFiles(spec, flag.Arg(0), flag.Arg(1))
	}
	if flag.NArg() != 0 {
		return fail(fmt.Errorf("unexpected arguments %q", flag.Args()))
	}
	if o.trace != 0 && o.trace != 1 {
		return fail(fmt.Errorf("-trace wants 0 or 1, got %d", o.trace))
	}
	if o.updateGolden && o.seed != defaultSeed {
		return fail(fmt.Errorf("golden digests are recorded for the default seed %d only", defaultSeed))
	}

	sc, minRounds, setups := scaleFull, 3, setupRepeats
	if o.smoke {
		sc, minRounds, setups = scaleSmoke, 1, 1
	}
	if o.seconds < 0 {
		o.seconds = float64(spec.RunSeconds)
		if o.smoke {
			o.seconds = 0
		}
	}
	all := workloads(sc)
	set := all
	if o.workload != "" {
		w, ok := findWorkload(all, o.workload)
		if !ok {
			return fail(fmt.Errorf("unknown workload %q", o.workload))
		}
		set = []workload{w}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	ro := runOptions{seed: o.seed, scale: sc, seconds: o.seconds, minRounds: minRounds, setups: setups, updateGolden: o.updateGolden}
	runOne := func(w workload) (res *result, err error) {
		if o.trace == 1 {
			res, err = e.runTraced(ctx, w, ro)
		} else {
			res, err = e.runEndToEnd(ctx, w, ro)
		}
		if err != nil {
			return nil, err
		}
		// The contract line must carry every metric BENCHMARK.json lists
		// for this kind of run.
		for _, ms := range spec.listed(res.Traced) {
			if m, ok := res.Metrics[ms.Name]; !ok || m.Unit != ms.Unit {
				res.Correct = false
				res.Complaints = append(res.Complaints, fmt.Sprintf("BENCHMARK.json lists %s in %s; the run reported %q", ms.Name, ms.Unit, m.Unit))
			}
		}
		return res, nil
	}

	if o.repeat > 0 {
		return repeatSets(spec, set, o.repeat, o.trace == 1, runOne)
	}

	doc := newDocument(e.root, o.seed, sc.name)
	ok := true
	for _, w := range set {
		res, err := runOne(w)
		if err != nil {
			return fail(fmt.Errorf("%s: %w", w.name, err))
		}
		doc.Results = append(doc.Results, res)
		printResult(spec, res)
		ok = ok && res.Correct
	}
	if o.out != "" {
		if err := writeDocument(o.out, doc); err != nil {
			return fail(err)
		}
	}
	if o.appendHist && o.trace == 0 {
		if err := appendHistory(filepath.Join(e.benchDir, "history.jsonl"), doc); err != nil {
			return fail(err)
		}
	}
	if !ok {
		fmt.Fprintln(os.Stderr, "bench: a check failed (see the complaints above)")
		return 1
	}
	return 0
}

func fail(err error) int {
	fmt.Fprintf(os.Stderr, "bench: %v\n", err)
	return 2
}

// document is the -o file and the unit -compare and history work on: one
// run of the benchmark over some workloads.
type document struct {
	Commit    string    `json:"commit"`
	GoVersion string    `json:"go_version"`
	NProc     int       `json:"nproc"`
	Seed      int64     `json:"seed"`
	Scale     string    `json:"scale"`
	Results   []*result `json:"results"`
}

func newDocument(root string, seed int64, scale string) *document {
	return &document{Commit: commitOf(root), GoVersion: runtime.Version(), NProc: runtime.NumCPU(), Seed: seed, Scale: scale}
}

// commitOf names the checkout's commit, or "unknown" outside a git
// repository (the benchmark driver's checkouts are plain directories).
func commitOf(root string) string {
	cmd := exec.Command("git", "rev-parse", "--short=12", "HEAD")
	cmd.Dir = root
	out, err := cmd.Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func writeDocument(path string, doc *document) error {
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// printResult prints a result for people — every metric by name and unit
// with its range and sample count — and then the contract line for the
// driver: the metrics BENCHMARK.json lists for this kind of run, value and
// unit only, as the last line of standard output.
func printResult(spec *benchmarkSpec, res *result) {
	kind := "end-to-end"
	if res.Traced {
		kind = "traced"
	}
	fmt.Printf("== %s  (%s, seed %d, scale %s)\n", res.Workload, kind, res.Seed, res.Scale)
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := res.Metrics[name]
		exact := ""
		if _, ok := res.Exact[name]; ok {
			exact = "  exact"
		}
		fmt.Printf("  %-34s %14.6g %-6s [%.6g .. %.6g] n=%d%s\n", name, m.Value, m.Unit, m.Min, m.Max, m.Samples, exact)
	}
	fmt.Printf("  %-34s %14.6g %-6s (%d of %d units)\n", "failed_share", res.FailedShare, "share", res.Failed, res.Attempted)
	fmt.Printf("  output digest %s\n", res.Digest)
	for _, c := range res.Complaints {
		fmt.Printf("  ! %s\n", c)
	}

	type valueUnit struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool                 `json:"correct"`
		Attempted int                  `json:"attempted"`
		Failed    int                  `json:"failed"`
		Metrics   map[string]valueUnit `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, map[string]valueUnit{}}
	for _, ms := range spec.listed(res.Traced) {
		if m, ok := res.Metrics[ms.Name]; ok {
			line.Metrics[ms.Name] = valueUnit{m.Value, m.Unit}
		}
	}
	data, err := json.Marshal(line)
	if err != nil {
		panic(err) // plain numbers and strings
	}
	fmt.Printf("%s\n", data)
}
