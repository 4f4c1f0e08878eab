// Command campaign coordinates one logical sweep or exploration across a
// fleet of processes: it plans a campaign directory (immutable manifest +
// unit/shard layout), runs or resumes individual shards with exact-once
// watermark checkpointing, and merges the unit reports — or any mix of
// standalone cmd/sweep / cmd/explore reports — into one campaign report.
//
// The merged result is a pure function of the campaign fingerprint and seed
// set: independent of shard count, interleaving and where shards were
// killed and resumed. CI pins this by byte-comparing a killed-and-resumed
// 3-shard campaign's canonical merge against a 1-shard reference.
//
// Examples:
//
//	campaign plan -dir runs/c1 -name c1 -explore explore.json -units 6 -shards 3
//	campaign run  -dir runs/c1 -shard 1   # one per machine/process; rerun = resume
//	campaign merge -dir runs/c1 -out c1.report.json -canonical-out c1.canonical.txt
//	campaign merge -out all.json shard1.json shard2.json shard3.json
//	campaign status -dir runs/c1
//
// Exit codes: 0 success, 2 usage or setup error (including incomplete
// campaigns and mismatched fingerprints at merge), 3 cancelled.
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

	"weakestfd/internal/campaign"
	"weakestfd/internal/cliutil"
)

func main() {
	os.Exit(run())
}

func run() int {
	if len(os.Args) < 2 {
		return usageErr("want a subcommand: plan, run, resume, merge, status")
	}
	cmd, args := os.Args[1], os.Args[2:]
	switch cmd {
	case "plan":
		return runPlan(args)
	case "run", "resume":
		// Running IS resuming: a shard continues past its watermark either way.
		return runShard(args)
	case "merge":
		return runMerge(args)
	case "status":
		return runStatus(args)
	case "-h", "-help", "--help", "help":
		fmt.Fprintln(os.Stderr, "usage: campaign <plan|run|resume|merge|status> [flags]")
		return 0
	default:
		return usageErr("unknown subcommand %q (want plan, run, resume, merge, status)", cmd)
	}
}

// runPlan writes a campaign directory's immutable manifest.
func runPlan(args []string) int {
	fs := flag.NewFlagSet("campaign plan", flag.ExitOnError)
	var (
		dir    = fs.String("dir", "", "campaign directory (created if missing)")
		name   = fs.String("name", "", "campaign name (default: base of -dir)")
		units  = fs.Int("units", 0, "work units (sweep: contiguous grid slices; explore: seeds)")
		shards = fs.Int("shards", 1, "shards the units are assigned to")
		gridF  = fs.String("grid", "", "sweep campaign: JSON grid-spec file (cmd/sweep -grid format)")
		explF  = fs.String("explore", "", "explore campaign: JSON explore-spec file")
	)
	fs.Parse(args)
	if *dir == "" {
		return usageErr("plan: -dir is required")
	}
	if (*gridF == "") == (*explF == "") {
		return usageErr("plan: want exactly one of -grid and -explore")
	}
	m := &campaign.Manifest{
		Name:   *name,
		Units:  *units,
		Shards: *shards,
	}
	if m.Name == "" {
		m.Name = baseName(*dir)
	}
	switch {
	case *gridF != "":
		m.Kind = campaign.KindSweep
		m.Grid = &cliutil.GridSpec{}
		if err := cliutil.ReadSpec(*gridF, m.Grid); err != nil {
			return usageErr("plan: %v", err)
		}
	case *explF != "":
		m.Kind = campaign.KindExplore
		m.Explore = &campaign.ExploreSpec{}
		if err := cliutil.ReadSpec(*explF, m.Explore); err != nil {
			return usageErr("plan: %v", err)
		}
		if *units == 0 {
			return usageErr("plan: -units is required (explore unit i runs at seed %d+i)", m.Explore.Seed)
		}
	}
	if err := campaign.Plan(*dir, m); err != nil {
		return usageErr("plan: %v", err)
	}
	fmt.Fprintf(os.Stderr, "campaign %s: planned %d %s units across %d shards in %s\n",
		m.Name, m.Units, m.Kind, m.Shards, *dir)
	fmt.Fprintf(os.Stderr, "campaign %s: fingerprint %s\n", m.Name, m.Fingerprint)
	return 0
}

// runShard executes or resumes one shard of a planned campaign.
func runShard(args []string) int {
	fs := flag.NewFlagSet("campaign run", flag.ExitOnError)
	var (
		dir      = fs.String("dir", "", "campaign directory")
		shard    = fs.Int("shard", 1, "shard to run (1-based)")
		workers  = fs.Int("workers", 0, "worker goroutines per unit (0 = GOMAXPROCS); does not affect results")
		journals = fs.String("journals", "", "directory to dump full trace journals of retained unit failures into (replay them with cmd/replay); does not affect unit reports")
		progress = fs.Duration("progress", 0, "JSONL progress interval on stderr (0 = off); units are the progress unit")
	)
	fs.Parse(args)
	if *dir == "" {
		return usageErr("run: -dir is required")
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var unitsDone, unitsTotal atomic.Int64
	stopProgress := cliutil.StartProgress(os.Stderr, *progress, func() cliutil.ProgressLine {
		return cliutil.ProgressLine{Tool: "campaign", Done: unitsDone.Load(), Total: unitsTotal.Load()}
	})
	done, total, err := campaign.RunShard(ctx, campaign.RunOptions{
		Dir:        *dir,
		Shard:      *shard,
		Workers:    *workers,
		Log:        os.Stderr,
		JournalDir: *journals,
		OnUnit: func(done, total int) {
			unitsDone.Store(int64(done))
			unitsTotal.Store(int64(total))
		},
	})
	stopProgress()
	switch {
	case err != nil && ctx.Err() != nil:
		fmt.Fprintf(os.Stderr, "campaign: shard %d cancelled at %d/%d units; rerun to resume\n", *shard, done, total)
		return 3
	case err != nil:
		return usageErr("run: %v", err)
	default:
		fmt.Fprintf(os.Stderr, "campaign: shard %d complete (%d/%d units)\n", *shard, done, total)
		return 0
	}
}

// runMerge folds reports into one campaign report: either a campaign
// directory's unit reports (completeness- and digest-checked) or an explicit
// list of report files.
func runMerge(args []string) int {
	fs := flag.NewFlagSet("campaign merge", flag.ExitOnError)
	var (
		dir          = fs.String("dir", "", "campaign directory to merge (all units must be complete)")
		out          = fs.String("out", "", "merged report path (default stdout)")
		canonicalOut = fs.String("canonical-out", "", "also write the canonical text rendering (the byte-comparable form)")
	)
	fs.Parse(args)
	files := fs.Args()
	if (*dir == "") == (len(files) == 0) {
		return usageErr("merge: want either -dir or a list of report files")
	}

	var inputs []campaign.Input
	if *dir != "" {
		var err error
		if inputs, err = campaign.DirInputs(*dir); err != nil {
			return usageErr("merge: %v", err)
		}
	} else {
		for _, f := range files {
			data, err := os.ReadFile(f)
			if err != nil {
				return usageErr("merge: %v", err)
			}
			in, err := campaign.ReadInput(f, data)
			if err != nil {
				return usageErr("merge: %v", err)
			}
			inputs = append(inputs, in)
		}
	}

	merged, err := campaign.MergeReports(inputs)
	if err != nil {
		return usageErr("merge: %v", err)
	}
	merged.GeneratedBy = "cmd/campaign " + strings.Join(os.Args[1:], " ")
	merged.GoVersion = runtime.Version()

	if err := cliutil.WriteJSON(*out, merged); err != nil {
		fmt.Fprintf(os.Stderr, "campaign: write report: %v\n", err)
		return 2
	}
	if *canonicalOut != "" {
		if err := cliutil.WriteFileAtomic(*canonicalOut, []byte(merged.Canonical())); err != nil {
			fmt.Fprintf(os.Stderr, "campaign: write %s: %v\n", *canonicalOut, err)
			return 2
		}
	}
	return 0
}

// runStatus prints per-shard progress.
func runStatus(args []string) int {
	fs := flag.NewFlagSet("campaign status", flag.ExitOnError)
	dir := fs.String("dir", "", "campaign directory")
	fs.Parse(args)
	if *dir == "" {
		return usageErr("status: -dir is required")
	}
	m, err := campaign.LoadManifest(*dir)
	if err != nil {
		return usageErr("status: %v", err)
	}
	states, err := campaign.ShardStates(*dir, m)
	if err != nil {
		return usageErr("status: %v", err)
	}
	fmt.Printf("campaign %s: kind=%s units=%d shards=%d\n", m.Name, m.Kind, m.Units, m.Shards)
	fmt.Printf("fingerprint: %s\n", m.Fingerprint)
	doneAll := true
	for _, st := range states {
		total := st.UnitHi - st.UnitLo
		state := "pending"
		switch {
		case st.Done():
			state = "done"
		case st.Watermark > 0:
			state = "running"
		}
		if !st.Done() {
			doneAll = false
		}
		fmt.Printf("shard %d: units [%d,%d) %d/%d %s\n", st.Shard, st.UnitLo, st.UnitHi, st.Watermark, total, state)
	}
	if doneAll {
		fmt.Println("all shards complete; ready to merge")
	}
	return 0
}

func baseName(dir string) string {
	dir = strings.TrimRight(dir, "/")
	if i := strings.LastIndexByte(dir, '/'); i >= 0 {
		return dir[i+1:]
	}
	return dir
}

func usageErr(format string, args ...any) int {
	fmt.Fprintf(os.Stderr, "campaign: "+format+"\n", args...)
	return 2
}
