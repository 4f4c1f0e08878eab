// Command explore is the coverage-guided schedule-space driver: instead of
// expanding a uniform grid like cmd/sweep, it runs internal/explore's
// fuzzer-style loop — a corpus of behaviour-novel configurations, seeded
// deterministic mutators, an energy schedule chasing the edge where
// behaviour last changed — minimises the failures it finds, and optionally
// locates per-class solvability boundaries with -frontier.
//
// The whole run is a pure function of -seed (for schedule-determined
// protocols and no -wall budget), with -depth-signal and -trace-signal as
// well as without: re-invoking with the same flags reproduces the report
// byte-for-byte up to the timing fields (elapsed_ms, explore_runs_per_sec),
// which is asserted by CI.
//
// The search flags fill a campaign.ExploreSpec, whose defaults are
// campaign.DefaultExploreSpec and whose Options is the one translation into
// an exploration: a campaign unit planned from a spec file with the same
// keys runs the same search and reports the same space fingerprint.
//
// The report is the one artifact. It carries the run's full corpus state,
// so it is also the seed of the next exploration: -corpus-in seeds this run
// from an explore report (an earlier -out, or a campaign unit report) or
// from a merged campaign report's corpus, and refuses anything else, or a
// corpus found with another protocol or n, with exit 2 (campaign.SeedCorpus). -frontier-state checkpoints the frontier
// bisection after every run so an interrupted search resumes losing at most
// one run. Reports carry a schema_version and a space fingerprint, so
// cmd/campaign can fold differently-seeded reports into one campaign report
// and refuse mixing incompatible searches; the merged report seeds the next
// generation.
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
//	    -corpus-in gen1.merged.json -out gen2.json
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

	"weakestfd/internal/campaign"
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
	// The search flags write straight into the spec, over its default table.
	spec := campaign.DefaultExploreSpec()
	defTimeout, err := time.ParseDuration(spec.Timeout)
	if err != nil {
		return usageErr("default timeout: %v", err)
	}
	flag.StringVar(&spec.Proto, "proto", spec.Proto, "protocol: "+cliutil.ProtoNames)
	flag.IntVar(&spec.N, "n", spec.N, "number of processes")
	flag.IntVar(&spec.Rounds, "rounds", spec.Rounds, "instances per run (consensus/multi)")
	flag.IntVar(&spec.Coordinator, "coordinator", spec.Coordinator, "coordinator process (twopc)")
	flag.Int64Var(&spec.Seed, "seed", spec.Seed, "master seed; the whole exploration is a pure function of it")
	flag.IntVar(&spec.Runs, "runs", spec.Runs, "exploration run budget")
	flag.IntVar(&spec.Batch, "batch", spec.Batch, "generation size (0 = default)")
	flag.StringVar(&spec.Classes, "classes", spec.Classes, "detector-class alphabet the class mutator swaps between (registry grammar)")
	flag.StringVar(&spec.Crashes, "crashes", spec.Crashes, "base crash schedule, entries p@time (mutators edit it; frontier probes run it as-is)")
	flag.StringVar(&spec.Delays, "delays", spec.Delays, "base delay range min:max")
	flag.BoolVar(&spec.SafetyOnly, "safety-only", spec.SafetyOnly, "check only safety clauses; also arms the drop-rate mutator")
	flag.IntVar(&spec.Minimize, "minimize", spec.Minimize, "distinct failure signatures to minimize (0 = none)")
	flag.BoolVar(&spec.DepthSignal, "depth-signal", spec.DepthSignal, "mix suspect-history depth into the novelty signature (stays byte-reproducible)")
	flag.BoolVar(&spec.TraceSignal, "trace-signal", spec.TraceSignal, "mix the step scheduler's bucketed trace shape into the novelty signature (stays byte-reproducible)")
	var (
		timeout       = flag.Duration("timeout", defTimeout, "per-run wall-clock backstop (genuine non-termination failures each cost this)")
		wall          = flag.Duration("wall", 0, "wall-clock budget (0 = none; a wall-bounded run is not reproducible)")
		workers       = flag.Int("workers", 0, "concurrent runs per generation (0 = GOMAXPROCS)")
		frontier      = flag.String("frontier", "", "frontier axes 'class:param:max' split by ';', e.g. 'eventually-perfect:stabilize:100000;eventually-strong:stabilize:1000'")
		frontierSeeds = flag.String("frontier-seeds", "", "probe seeds for the frontier search (default: the master seed)")
		frontierState = flag.String("frontier-state", "", "frontier checkpoint file: resumed from if present, rewritten after every probe run")
		corpusIn      = flag.String("corpus-in", "", "seed corpus: an explore report (-out, or a campaign unit report) or a merged campaign report")
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

	spec.Timeout = timeout.String()
	opts, err := spec.Options(spec.Seed)
	if err != nil {
		return usageErr("%v", err)
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

	if *corpusIn != "" {
		data, err := os.ReadFile(*corpusIn)
		if err != nil {
			return usageErr("corpus-in: %v", err)
		}
		st, proto, n, err := campaign.SeedCorpus("corpus-in "+*corpusIn, data)
		if err != nil {
			return usageErr("%v", err)
		}
		// The entries carry their configs: a corpus from another protocol or
		// n would run outside the space this report names.
		if proto != opts.Proto.Name() || n != opts.Base.N {
			return usageErr("corpus-in %s: corpus is from %s at n=%d, not this exploration's %s at n=%d", *corpusIn, proto, n, opts.Proto.Name(), opts.Base.N)
		}
		opts.SeedCorpus = st
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var done, failed atomic.Int64
	opts.Wall = *wall
	opts.Workers = *workers
	opts.OnRun = func(_ int, res *scenario.Result) {
		done.Add(1)
		if !res.Verdict.OK {
			failed.Add(1)
		}
	}
	stopProgress := cliutil.StartProgress(os.Stderr, *progress, func() cliutil.ProgressLine {
		return cliutil.ProgressLine{Tool: "explore", Done: done.Load(), Total: int64(spec.Runs), Failed: failed.Load()}
	})

	rep, err := explore.Explore(ctx, opts)
	stopProgress()
	if err != nil {
		return usageErr("%v", err)
	}

	outRep := cliutil.NewExploreReport(opts, rep)
	outRep.GeneratedBy = "cmd/explore " + strings.Join(os.Args[1:], " ")
	outRep.GoVersion = runtime.Version()
	outRep.ElapsedMS = float64(rep.Elapsed) / float64(time.Millisecond)
	outRep.ExploreRunsPerSec = rep.RunsPerSec
	journals.DumpFailures(ctx, "", nil, &outRep, opts.Proto, logf)

	if len(axes) > 0 && ctx.Err() == nil {
		seeds := probeSeeds
		if len(seeds) == 0 {
			seeds = []int64{opts.Seed}
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
		bounds, err := explore.FrontierResume(ctx, opts.Base, opts.Proto, axes, seeds, state, checkpoint)
		outRep.Frontier = bounds
		for _, b := range bounds {
			outRep.FrontierRuns += b.Runs
			logf("frontier %s:%s = %s", b.Spec, b.Param, describeBoundary(b))
		}
		if err != nil && ctx.Err() == nil {
			return usageErr("frontier: %v", err)
		}
	}

	if err := cliutil.WriteJSON(*out, outRep); err != nil {
		return usageErr("write report: %v", err)
	}

	if ctx.Err() != nil {
		logf("cancelled after %d of %d runs", rep.Runs, rep.Budget)
		return 3
	}
	logf("%d runs, %d behaviour classes, %d failure signatures (%d minimized)",
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

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "explore: "+format+"\n", args...)
}

func usageErr(format string, args ...any) int {
	logf(format, args...)
	return 2
}
