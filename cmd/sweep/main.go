// Command sweep is the schedule-space grid driver: it expands a grid spec
// (flags or a JSON file) over a base scenario, fans the runs across worker
// goroutines — and, with --shard k/m, across independent processes covering
// disjoint contiguous slices of the row-major index space — streams
// progress, and emits a JSON report in the same committed-snapshot style as
// BENCH_net.json. With --minimize, the first failure is shrunk to a minimal
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

func defaultSpec() cliutil.GridSpec {
	return cliutil.GridSpec{Proto: "consensus", N: 5, Rounds: 8, Seeds: "1-16", Timeout: "30s", Keep: 8}
}

func main() {
	os.Exit(run())
}

func run() int {
	def := defaultSpec()
	var (
		proto       = flag.String("proto", def.Proto, "protocol: "+cliutil.ProtoNames)
		n           = flag.Int("n", def.N, "number of processes")
		rounds      = flag.Int("rounds", def.Rounds, "instances per run (consensus/multi)")
		coordinator = flag.Int("coordinator", def.Coordinator, "coordinator process (twopc)")
		seeds       = flag.String("seeds", def.Seeds, "seed list/ranges, e.g. 1-1000 or 1,2,7-9")
		detectors   = flag.String("detectors", def.Detectors, "detector-spec axis, e.g. 'omega-sigma,perfect,eventually-perfect{stabilize:50},eventually-strong' (empty = scenario default; registry grammar class{suspect:N,detect:N,stabilize:N,switch:N,policy:..})")
		delays      = flag.String("delays", def.Delays, "delay ranges, e.g. 0:200us,1ms:50ms (empty = scenario default)")
		crashes     = flag.String("crashes", def.Crashes, "crash schedules split by ';', entries p@time; '-' is the crash-free point, e.g. '-;4@5ms;1@2ms,3@10ms'")
		drop        = flag.Float64("drop", def.Drop, "per-message drop probability (combine with -safety-only)")
		safetyOnly  = flag.Bool("safety-only", def.SafetyOnly, "check only safety clauses (no termination)")
		timeout     = flag.String("timeout", def.Timeout, "per-run wall-clock backstop")
		shard       = flag.String("shard", def.Shard, "shard k/m: cover slice k of m of the grid's row-major index space")
		workers     = flag.Int("workers", def.Workers, "worker goroutines (0 = GOMAXPROCS)")
		keep        = flag.Int("keep", def.Keep, "failing Results to retain in full (0 = none: count only)")
		gridFile    = flag.String("grid", "", "JSON grid-spec file; explicit flags override its keys")
		out         = flag.String("out", "", "report path (default stdout)")
		minimize    = flag.Bool("minimize", false, "shrink the first failure to a minimal reproducer (retains it even under -keep 0)")
		probes      = flag.Bool("probes", def.Probes, "fold per-run trace probes into the report's aggregates")
		progress    = flag.Duration("progress", 0, "JSONL progress interval on stderr (0 = off)")
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

	sp := def
	if *gridFile != "" {
		if err := cliutil.ReadSpec(*gridFile, &sp); err != nil {
			return usageErr("grid spec: %v", err)
		}
	}
	// Explicit flags win over the spec file.
	overlay := map[string]func(){
		"proto": func() { sp.Proto = *proto }, "n": func() { sp.N = *n },
		"rounds": func() { sp.Rounds = *rounds }, "coordinator": func() { sp.Coordinator = *coordinator },
		"seeds": func() { sp.Seeds = *seeds }, "detectors": func() { sp.Detectors = *detectors },
		"delays":  func() { sp.Delays = *delays },
		"crashes": func() { sp.Crashes = *crashes }, "drop": func() { sp.Drop = *drop },
		"safety-only": func() { sp.SafetyOnly = *safetyOnly },
		"timeout":     func() { sp.Timeout = *timeout }, "shard": func() { sp.Shard = *shard },
		"workers": func() { sp.Workers = *workers }, "keep": func() { sp.Keep = *keep },
		"probes": func() { sp.Probes = *probes },
	}
	flag.Visit(func(f *flag.Flag) {
		if apply, ok := overlay[f.Name]; ok {
			apply()
		}
	})

	base, grid, p, err := cliutil.BuildGrid(sp)
	if err != nil {
		return usageErr("%v", err)
	}
	if *minimize && grid.KeepFailures <= 0 {
		// Minimisation needs a retained failure to start from.
		fmt.Fprintln(os.Stderr, "sweep: -minimize needs a retained failure; keeping 1 despite -keep")
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

	rep := cliutil.SweepReport{
		SchemaVersion:   cliutil.ReportSchemaVersion,
		GeneratedBy:     "cmd/sweep " + strings.Join(os.Args[1:], " "),
		GoVersion:       runtime.Version(),
		GridFingerprint: grid.Fingerprint(base.Config()),
		Proto:           p.Name(),
		N:               sp.N,
		GridSize:        res.GridSize,
		Shard:           sp.Shard,
		IndexLo:         res.IndexLo,
		IndexHi:         res.IndexHi,
		Runs:            res.Runs,
		Passed:          res.Passed,
		Faulted:         res.Faulted,
		Cancelled:       res.Cancelled,
		ElapsedMS:       float64(res.Elapsed) / float64(time.Millisecond),
		RunsPerSec:      res.RunsPerSec,
		Probes:          res.Probes,
	}
	for _, d := range res.Detectors {
		rep.Detectors = append(rep.Detectors, cliutil.DetectorReport(d))
	}
	for i, f := range res.Failures {
		rep.Failures = append(rep.Failures, cliutil.FailureReport{
			Index:       res.FailureIndices[i],
			Violations:  f.Verdict.Violations,
			Fingerprint: f.Fingerprint(),
			Config:      f.Config,
		})
	}
	if journals.Enabled() && ctx.Err() == nil {
		for i, f := range res.Failures {
			name := fmt.Sprintf("failure-%06d", res.FailureIndices[i])
			path, err := journals.Dump(ctx, name, f.Config, p)
			if err != nil {
				fmt.Fprintf(os.Stderr, "sweep: %v\n", err)
				continue
			}
			fmt.Fprintf(os.Stderr, "sweep: journaled failure %d -> %s\n", res.FailureIndices[i], path)
		}
	}
	if *minimize && len(res.Failures) > 0 && ctx.Err() == nil {
		min, err := scenario.Minimize(ctx, res.Failures[0].Config, p)
		if err != nil {
			fmt.Fprintf(os.Stderr, "sweep: minimize: %v\n", err)
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
		fmt.Fprintf(os.Stderr, "sweep: write report: %v\n", err)
		return 2
	}

	switch {
	case ctx.Err() != nil:
		fmt.Fprintf(os.Stderr, "sweep: cancelled after %d of %d runs\n", res.Runs-res.Cancelled, res.Runs)
		return 3
	case res.Faulted > 0:
		fmt.Fprintf(os.Stderr, "sweep: %d of %d runs violated the spec\n", res.Faulted, res.Runs)
		return 1
	default:
		return 0
	}
}

func usageErr(format string, args ...any) int {
	fmt.Fprintf(os.Stderr, "sweep: "+format+"\n", args...)
	return 2
}
