// Command explore is the coverage-guided schedule-space driver: instead of
// expanding a uniform grid like cmd/sweep, it runs internal/explore's
// fuzzer-style loop — a corpus of behaviour-novel configurations, seeded
// deterministic mutators, an energy schedule chasing the edge where
// behaviour last changed — minimises the failures it finds, and optionally
// locates per-class solvability boundaries with -frontier.
//
// The whole run is a pure function of -seed (for schedule-determined
// protocols, no -wall budget, -depth-signal off): re-invoking with the same
// flags reproduces the report byte-for-byte up to the timing fields
// (elapsed_ms, explore_runs_per_sec), which is asserted by CI.
//
// Persistence flags connect explorations across invocations and machines:
// -corpus-in seeds this run with a serialized corpus (a -corpus-out file or
// any explore report), -corpus-out serializes this run's corpus state, and
// -frontier-state checkpoints the frontier bisection after every run so an
// interrupted search resumes losing at most one run. Reports carry a
// schema_version and a space fingerprint, so cmd/campaign can fold
// differently-seeded reports into one campaign report and refuse mixing
// incompatible searches.
//
// Examples:
//
//	explore -proto consensus -n 5 -seed 7 -runs 500 \
//	    -classes 'omega-sigma,perfect,eventually-perfect{stabilize:50},eventually-strong{stabilize:50}' \
//	    -timeout 250ms -minimize 3 -progress 2s
//	explore -proto consensus -n 5 -runs 200 \
//	    -frontier 'eventually-perfect:stabilize:100000;eventually-strong:stabilize:1000' \
//	    -frontier-seeds 1,2,3 -frontier-state frontier.json
//	explore -proto consensus -n 5 -seed 8 -runs 500 \
//	    -corpus-in gen1.corpus.json -corpus-out gen2.corpus.json
//
// Exit codes: 0 exploration completed (found failures are a result, not an
// error), 2 usage or setup error, 3 cancelled (SIGINT/SIGTERM).
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"weakestfd/internal/cliutil"
	"weakestfd/internal/explore"
	"weakestfd/internal/fd"
	"weakestfd/internal/model"
	"weakestfd/internal/scenario"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		proto         = flag.String("proto", "consensus", "protocol: "+cliutil.ProtoNames)
		n             = flag.Int("n", 5, "number of processes")
		rounds        = flag.Int("rounds", 8, "instances per run (consensus/multi)")
		coordinator   = flag.Int("coordinator", 0, "coordinator process (twopc)")
		seed          = flag.Int64("seed", 1, "master seed; the whole exploration is a pure function of it")
		runs          = flag.Int("runs", 256, "exploration run budget")
		wall          = flag.Duration("wall", 0, "wall-clock budget (0 = none; a wall-bounded run is not reproducible)")
		batch         = flag.Int("batch", 0, "generation size (0 = default)")
		workers       = flag.Int("workers", 0, "concurrent runs per generation (0 = GOMAXPROCS)")
		classes       = flag.String("classes", "omega-sigma,perfect,eventually-perfect{stabilize:50},eventually-strong{stabilize:50}", "detector-class alphabet the class mutator swaps between (registry grammar)")
		crashes       = flag.String("crashes", "", "base crash schedule, entries p@time (mutators edit it; frontier probes run it as-is)")
		delays        = flag.String("delays", "1ms:3ms", "base delay range min:max")
		timeout       = flag.Duration("timeout", 250*time.Millisecond, "per-run wall-clock backstop (genuine non-termination failures each cost this)")
		safetyOnly    = flag.Bool("safety-only", false, "check only safety clauses; also arms the drop-rate mutator")
		minimize      = flag.Int("minimize", 3, "distinct failure signatures to minimize (0 = none)")
		depthSignal   = flag.Bool("depth-signal", false, "mix suspect-history depth into the novelty signature (trades reproducibility for sensitivity)")
		traceSignal   = flag.Bool("trace-signal", false, "mix the step scheduler's bucketed trace shape into the novelty signature (stays byte-reproducible)")
		frontier      = flag.String("frontier", "", "frontier axes 'class:param:max' split by ';', e.g. 'eventually-perfect:stabilize:100000;eventually-strong:stabilize:1000'")
		frontierSeeds = flag.String("frontier-seeds", "", "probe seeds for the frontier search (default: the master seed)")
		frontierState = flag.String("frontier-state", "", "frontier checkpoint file: resumed from if present, rewritten after every probe run")
		corpusIn      = flag.String("corpus-in", "", "seed corpus file (a -corpus-out file or any explore report)")
		corpusOut     = flag.String("corpus-out", "", "serialize the final corpus state here (atomic write)")
		out           = flag.String("out", "", "report path (default stdout)")
		progress      = flag.Duration("progress", 0, "JSONL progress interval on stderr (0 = off)")
	)
	var prof cliutil.ProfileFlags
	prof.Register(flag.CommandLine)
	var journals cliutil.JournalFlags
	journals.Register(flag.CommandLine)
	flag.Parse()
	if err := prof.Start(); err != nil {
		return usageErr("%v", err)
	}
	defer prof.Stop()

	p, err := cliutil.BuildProtocol(*proto, *n, *rounds, *coordinator)
	if err != nil {
		return usageErr("%v", err)
	}
	alphabet, err := cliutil.ParseDetectors(*classes)
	if err != nil {
		return usageErr("classes: %v", err)
	}
	delayRanges, err := cliutil.ParseDelays(*delays)
	if err != nil || len(delayRanges) != 1 {
		return usageErr("delays: want exactly one min:max range (got %q)", *delays)
	}
	axes, err := parseFrontier(*frontier)
	if err != nil {
		return usageErr("frontier: %v", err)
	}
	probeSeeds, probeSpan, err := cliutil.ParseSeeds(*frontierSeeds)
	if err != nil {
		return usageErr("frontier-seeds: %v", err)
	}
	// Every frontier probe costs one run per seed, so the cap applies to the
	// expanded list regardless of which syntax produced it.
	const maxProbeSeeds = 64
	if total := len(probeSeeds) + probeSpan.N; total > maxProbeSeeds {
		return usageErr("frontier-seeds: %d probe seeds is past any useful confirmation depth (max %d)", total, maxProbeSeeds)
	}
	for i := 0; i < probeSpan.N; i++ {
		probeSeeds = append(probeSeeds, probeSpan.From+int64(i))
	}

	var seedCorpus *explore.CorpusState
	if *corpusIn != "" {
		data, err := os.ReadFile(*corpusIn)
		if err != nil {
			return usageErr("corpus-in: %v", err)
		}
		// Accept either a serialized corpus state or a full explore report
		// (whose corpus doubles as a seedable state).
		if sw, ex, err := cliutil.ReadAnyReport(*corpusIn, data); err == nil {
			if sw != nil {
				return usageErr("corpus-in %s: is a sweep report, which carries no corpus", *corpusIn)
			}
			seedCorpus = ex.CorpusState()
		} else if seedCorpus, err = explore.LoadCorpus(data); err != nil {
			return usageErr("corpus-in %s: %v", *corpusIn, err)
		}
	}

	baseSchedules, err := cliutil.ParseCrashes(*crashes, *n)
	if err != nil {
		return usageErr("crashes: %v", err)
	}
	if len(baseSchedules) > 1 {
		return usageErr("crashes: the base takes one schedule, not %d (the mutators explore variants)", len(baseSchedules))
	}
	baseOpts := []scenario.Option{
		scenario.WithSeed(*seed),
		scenario.WithDelays(delayRanges[0].Min, delayRanges[0].Max),
		scenario.WithTimeout(*timeout),
	}
	if len(baseSchedules) == 1 {
		baseOpts = append(baseOpts, scenario.WithCrashes(baseSchedules[0]...))
	}
	if *safetyOnly {
		baseOpts = append(baseOpts, scenario.WithSafetyOnly())
	}
	base := scenario.New(*n, baseOpts...).Config()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var done, failed atomic.Int64
	opts := explore.Options{
		Seed:          *seed,
		Runs:          *runs,
		Wall:          *wall,
		Batch:         *batch,
		Workers:       *workers,
		Proto:         p,
		Base:          base,
		Classes:       alphabet,
		MinimizeLimit: *minimize,
		DepthSignal:   *depthSignal,
		TraceSignal:   *traceSignal,
		SeedCorpus:    seedCorpus,
		OnRun: func(_ int, res *scenario.Result) {
			done.Add(1)
			if !res.Verdict.OK {
				failed.Add(1)
			}
		},
	}
	stopProgress := cliutil.StartProgress(os.Stderr, *progress, func() cliutil.ProgressLine {
		return cliutil.ProgressLine{Tool: "explore", Done: done.Load(), Total: int64(*runs), Failed: failed.Load()}
	})

	rep, err := explore.Explore(ctx, opts)
	stopProgress()
	if err != nil {
		return usageErr("%v", err)
	}

	var outRep cliutil.ExploreReport
	outRep.FromExplore(rep)
	outRep.GeneratedBy = "cmd/explore " + strings.Join(os.Args[1:], " ")
	outRep.GoVersion = runtime.Version()
	outRep.SpaceFingerprint = explore.SpaceFingerprint(opts)
	outRep.ElapsedMS = float64(rep.Elapsed) / float64(time.Millisecond)
	outRep.RunsPerSec = rep.RunsPerSec

	if journals.Enabled() && ctx.Err() == nil {
		for _, f := range rep.Failures {
			name := fmt.Sprintf("failure-run%06d", f.Run)
			path, err := journals.Dump(ctx, name, f.Config, p)
			if err != nil {
				fmt.Fprintf(os.Stderr, "explore: %v\n", err)
				continue
			}
			fmt.Fprintf(os.Stderr, "explore: journaled failure at run %d -> %s\n", f.Run, path)
		}
	}

	if *corpusOut != "" {
		data, err := rep.CorpusState().Marshal()
		if err != nil {
			fmt.Fprintf(os.Stderr, "explore: corpus-out: %v\n", err)
			return 2
		}
		if err := cliutil.WriteFileAtomic(*corpusOut, data); err != nil {
			fmt.Fprintf(os.Stderr, "explore: corpus-out %s: %v\n", *corpusOut, err)
			return 2
		}
	}

	if len(axes) > 0 && ctx.Err() == nil {
		seeds := probeSeeds
		if len(seeds) == 0 {
			seeds = []int64{base.Seed}
		}
		var state *explore.FrontierState
		var checkpoint func(*explore.FrontierState) error
		if *frontierState != "" {
			if data, err := os.ReadFile(*frontierState); err == nil {
				if state, err = explore.LoadFrontierState(data); err != nil {
					return usageErr("frontier-state %s: %v", *frontierState, err)
				}
			} else if !os.IsNotExist(err) {
				return usageErr("frontier-state: %v", err)
			}
			checkpoint = func(st *explore.FrontierState) error {
				data, err := st.Marshal()
				if err != nil {
					return err
				}
				return cliutil.WriteFileAtomic(*frontierState, data)
			}
		}
		bounds, err := explore.FrontierResume(ctx, base, p, axes, seeds, state, checkpoint)
		outRep.Frontier = bounds
		for _, b := range bounds {
			outRep.FrontierRuns += b.Runs
			fmt.Fprintf(os.Stderr, "explore: frontier %s:%s = %s\n", b.Spec, b.Param, describeBoundary(b))
		}
		if err != nil && ctx.Err() == nil {
			return usageErr("frontier: %v", err)
		}
	}

	if err := cliutil.WriteJSON(*out, outRep); err != nil {
		fmt.Fprintf(os.Stderr, "explore: write report: %v\n", err)
		return 2
	}

	if ctx.Err() != nil {
		fmt.Fprintf(os.Stderr, "explore: cancelled after %d of %d runs\n", rep.Runs, rep.Budget)
		return 3
	}
	fmt.Fprintf(os.Stderr, "explore: %d runs, %d behaviour classes, %d failure signatures (%d minimized)\n",
		rep.Runs, rep.Novel, len(rep.Failures), len(rep.Minimized))
	return 0
}

// parseFrontier parses ';'-separated axes 'class:param:max'; the class may
// carry a {...} parameter block (colons inside it do not split).
func parseFrontier(s string) ([]explore.Axis, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	var axes []explore.Axis
	for _, entry := range strings.Split(s, ";") {
		if strings.TrimSpace(entry) == "" {
			continue
		}
		parts, err := fd.SplitTopLevel(strings.TrimSpace(entry), ':')
		if err != nil {
			return nil, fmt.Errorf("bad axis %q: %w", entry, err)
		}
		if len(parts) != 3 {
			return nil, fmt.Errorf("bad axis %q (want class:param:max)", entry)
		}
		spec, err := fd.ParseSpec(strings.TrimSpace(parts[0]))
		if err != nil {
			return nil, err
		}
		maxTicks, err := strconv.ParseInt(strings.TrimSpace(parts[2]), 10, 64)
		if err != nil || maxTicks <= 0 {
			return nil, fmt.Errorf("bad axis ceiling %q (want positive ticks)", parts[2])
		}
		axis := explore.Axis{Spec: spec, Param: strings.TrimSpace(parts[1]), Max: model.Time(maxTicks)}
		if err := explore.ValidateAxis(axis); err != nil {
			return nil, err
		}
		axes = append(axes, axis)
	}
	return axes, nil
}

// describeBoundary renders a boundary for the progress stream.
func describeBoundary(b explore.Boundary) string {
	switch {
	case b.Unsolvable:
		return "unsolvable at any quality"
	case b.Censored:
		return fmt.Sprintf("passes through the ceiling %d", b.Max)
	case b.Inverted:
		return fmt.Sprintf("min passing %d, max failing %d", b.MinPassing, b.MaxFailing)
	default:
		return fmt.Sprintf("max passing %d, min failing %d", b.MaxPassing, b.MinFailing)
	}
}

func usageErr(format string, args ...any) int {
	fmt.Fprintf(os.Stderr, "explore: "+format+"\n", args...)
	return 2
}
