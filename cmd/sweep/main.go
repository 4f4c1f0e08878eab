// Command sweep is the schedule-space grid driver: it expands a grid spec
// (flags or a JSON file) over a base scenario, fans the runs across worker
// goroutines — and, with --shard k/m, across independent processes covering
// disjoint contiguous slices of the row-major index space — streams
// progress, and emits a JSON report. With --minimize, the first failure is shrunk to a minimal
// reproducer (scenario.Minimize) before the report is written. Detector
// quality is part of the detector spec (-detectors 'omega-sigma{suspect:10}'),
// which also labels the report's per-class column.
//
// Reports carry a schema_version and the grid fingerprint, so cmd/campaign
// can fold shard reports from independent invocations into one campaign
// report and refuse mixing reports from different grids.
//
// Examples:
//
//	sweep -proto consensus -n 5 -seeds 1-1000 -delays 1ms:50ms \
//	      -crashes '-;4@5ms;0@8ms' -progress 2s
//	sweep -proto consensus -n 5 -seeds 1-64 \
//	      -detectors 'omega-sigma,perfect,eventually-perfect{stabilize:50},eventually-strong{stabilize:50}' \
//	      -crashes '-;4@5ms'
//	sweep -proto consensus/multi -rounds 16 -seeds 1-64
//	sweep -proto nbac -seeds 1-250000 -shard 3/8 -keep 0 -out shard3.json
//
// Exit codes: 0 all runs passed, 1 spec failures, 2 usage or setup error,
// 3 cancelled (SIGINT/SIGTERM).
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"weakestfd/internal/cliutil"
	"weakestfd/internal/scenario"
)

func main() {
	os.Exit(run())
}

func run() int {
	// The spec flags write straight into the spec, over its default table.
	sp := cliutil.DefaultGridSpec()
	flag.StringVar(&sp.Proto, "proto", sp.Proto, "protocol: "+cliutil.ProtoNames)
	flag.IntVar(&sp.N, "n", sp.N, "number of processes")
	flag.IntVar(&sp.Rounds, "rounds", sp.Rounds, "instances per run (consensus/multi)")
	flag.IntVar(&sp.Coordinator, "coordinator", sp.Coordinator, "coordinator process (twopc)")
	flag.StringVar(&sp.Seeds, "seeds", sp.Seeds, "seed list/ranges, e.g. 1-1000 or 1,2,7-9")
	flag.StringVar(&sp.Detectors, "detectors", sp.Detectors, "detector-spec axis, e.g. 'omega-sigma,perfect,eventually-perfect{stabilize:50},eventually-strong' (empty = scenario default; registry grammar class{suspect:N,detect:N,stabilize:N,switch:N,policy:..})")
	flag.StringVar(&sp.Delays, "delays", sp.Delays, "delay ranges, e.g. 0:200us,1ms:50ms (empty = scenario default)")
	flag.StringVar(&sp.Crashes, "crashes", sp.Crashes, "crash schedules split by ';', entries p@time; '-' is the crash-free point, e.g. '-;4@5ms;1@2ms,3@10ms'")
	flag.Float64Var(&sp.Drop, "drop", sp.Drop, "per-message drop probability (combine with -safety-only)")
	flag.BoolVar(&sp.SafetyOnly, "safety-only", sp.SafetyOnly, "check only safety clauses (no termination)")
	flag.StringVar(&sp.Timeout, "timeout", sp.Timeout, "per-run wall-clock backstop")
	flag.StringVar(&sp.Shard, "shard", sp.Shard, "shard k/m: cover slice k of m of the grid's row-major index space")
	flag.IntVar(&sp.Workers, "workers", sp.Workers, "worker goroutines (0 = GOMAXPROCS)")
	flag.IntVar(&sp.Keep, "keep", sp.Keep, "failing Results to retain in full (0 = none: count only)")
	flag.BoolVar(&sp.Probes, "probes", sp.Probes, "fold per-run trace probes into the report's aggregates")
	var (
		gridFile = flag.String("grid", "", "JSON grid-spec file; explicit flags override its keys")
		out      = flag.String("out", "", "report path (default stdout)")
		minimize = flag.Bool("minimize", false, "shrink the first failure to a minimal reproducer (retains it even under -keep 0)")
		progress = flag.Duration("progress", 0, "JSONL progress interval on stderr (0 = off)")
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

	if *gridFile != "" {
		// Explicit flags win over the spec file: read it over the parsed
		// spec, then set the explicit flags again.
		explicit := map[string]string{}
		flag.Visit(func(f *flag.Flag) { explicit[f.Name] = f.Value.String() })
		if err := cliutil.ReadSpec(*gridFile, &sp); err != nil {
			return usageErr("grid spec: %v", err)
		}
		for name, v := range explicit {
			if err := flag.Set(name, v); err != nil {
				return usageErr("%v", err)
			}
		}
	}

	base, grid, p, err := cliutil.BuildGrid(sp)
	if err != nil {
		return usageErr("%v", err)
	}
	if *minimize && grid.KeepFailures <= 0 {
		// Minimisation needs a retained failure to start from.
		logf("-minimize needs a retained failure; keeping 1 despite -keep")
		grid.KeepFailures = 1
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	lo, hi := grid.Shard.Bounds(grid.Size())
	var done, passed atomic.Int64
	grid.OnRun = func(_ int, res *scenario.Result) {
		done.Add(1)
		if res.Verdict.OK {
			passed.Add(1)
		}
	}
	stopProgress := cliutil.StartProgress(os.Stderr, *progress, func() cliutil.ProgressLine {
		d := done.Load()
		ok := passed.Load()
		return cliutil.ProgressLine{Tool: "sweep", Done: d, Total: int64(hi - lo), Passed: ok, Failed: d - ok}
	})

	res := scenario.Sweep(ctx, base, grid, p)
	stopProgress()

	rep := cliutil.NewSweepReport(sp, base, grid, p, res)
	rep.GeneratedBy = "cmd/sweep " + strings.Join(os.Args[1:], " ")
	rep.GoVersion = runtime.Version()
	rep.ElapsedMS = float64(res.Elapsed) / float64(time.Millisecond)
	rep.RunsPerSec = res.RunsPerSec
	journals.DumpFailures(ctx, "", &rep, nil, p, logf)
	if *minimize && len(res.Failures) > 0 && ctx.Err() == nil {
		min, err := scenario.Minimize(ctx, res.Failures[0].Config, p)
		if err != nil {
			logf("minimize: %v", err)
		} else {
			rep.Minimized = &cliutil.MinimizedReport{
				FromIndex:   res.FailureIndices[0],
				Candidates:  min.Candidates,
				Violations:  min.Result.Verdict.Violations,
				Fingerprint: min.Fingerprint,
				Config:      min.Config,
			}
		}
	}

	if err := cliutil.WriteJSON(*out, rep); err != nil {
		return usageErr("write report: %v", err)
	}

	switch {
	case ctx.Err() != nil:
		logf("cancelled after %d of %d runs", res.Runs-res.Cancelled, res.Runs)
		return 3
	case res.Faulted > 0:
		logf("%d of %d runs violated the spec", res.Faulted, res.Runs)
		return 1
	default:
		return 0
	}
}

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "sweep: "+format+"\n", args...)
}

func usageErr(format string, args ...any) int {
	logf(format, args...)
	return 2
}
