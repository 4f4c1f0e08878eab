// Command replay re-executes a journaled run and holds it to its journal.
//
// The step scheduler makes the full record stream a pure function of
// (seed, config), so replaying a journal's embedded config must reproduce
// the recorded stream record-for-record. The default mode does exactly
// that: it rebuilds the protocol from the journal's meta, re-runs the
// scenario with a record-by-record checker attached, and either confirms a
// full match (including the byte-equal trace fingerprint) or stops at the
// first scheduler decision that differs, printing the record index,
// expected vs actual, and a window of surrounding journal context.
//
// Three offline modes need no re-execution:
//
//	replay -verify <journal>   recompute the SHA-256 over the records and
//	                           cross-check the recorded trace fingerprint
//	replay -stats <journal>    recompute the probe fold over the records and
//	                           assert it equals the live capture in the meta
//	replay -diff <a> <b>       compare two journals, reporting the first
//	                           meta or record difference
//
// Every mode that loads a single journal prints a header first: protocol,
// schema, capture mode, the per-kind record counters of the recorded trace,
// and the taint reason when the run escaped to wall-clock.
//
// And -record produces journals without needing a retained failure: it
// runs one scenario point with full capture and writes the journal —
// note that a run which only fails by hitting its wall-clock backstop
// records a *tainted* journal (the cut point is not schedule-determined),
// which replay will then refuse with the taint reason.
//
//	replay -record -proto consensus -n 5 -seed 7 -o run.journal
//
// The point flags (-proto, -n, -seed, -delays, -crashes, -detectors,
// -rounds, -coordinator, -timeout, -o) belong to -record alone; the other
// modes refuse them (exit 2).
//
// Examples:
//
//	replay runs/journals/failure-000041.journal
//	replay -window 10 failure.journal
//	replay -verify failure.journal
//	replay -diff before.journal after.journal
//
// Exit codes: 0 full match (or verified, or identical, or recorded),
// 1 divergence (or failed verification, or differing journals), 2 usage
// or setup error (unreadable or future-schema journals, tainted runs,
// ring suffixes), 3 cancelled (SIGINT/SIGTERM).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"syscall"

	"weakestfd/internal/cliutil"
	"weakestfd/internal/journal"
	"weakestfd/internal/probe"
	"weakestfd/internal/scenario"
)

func main() {
	os.Exit(run())
}

func run() int {
	// The -record point flags write straight into a one-point grid spec.
	sp := cliutil.GridSpec{}
	flag.IntVar(&sp.Rounds, "rounds", 8, "-record: instances per run (consensus/multi; replay reads it from the journal meta)")
	flag.IntVar(&sp.Coordinator, "coordinator", 0, "-record: coordinator process (twopc; replay reads it from the journal meta)")
	flag.StringVar(&sp.Proto, "proto", "consensus", "-record: protocol, one of "+cliutil.ProtoNames)
	flag.IntVar(&sp.N, "n", 5, "-record: number of processes")
	flag.StringVar(&sp.Delays, "delays", "", "-record: delay range min:max (scenario default when empty)")
	flag.StringVar(&sp.Crashes, "crashes", "", "-record: crash schedule, entries p@time")
	flag.StringVar(&sp.Detectors, "detectors", "", "-record: detector spec, one registry class (scenario default when empty)")
	var (
		verify  = flag.Bool("verify", false, "verify the journal offline: recompute the record hash against the recorded trace fingerprint (no re-execution)")
		diff    = flag.Bool("diff", false, "compare two journals, reporting the first meta or record difference (no re-execution)")
		stats   = flag.Bool("stats", false, "recompute the probe fold offline from the journal's records, assert it matches the recorded live capture, and print it (no re-execution)")
		record  = flag.Bool("record", false, "run one scenario point with full capture and write its journal (-proto/-n/-seed/..., -o)")
		window  = flag.Int("window", 5, "journal context records shown around a divergence")
		seed    = flag.Int64("seed", 1, "-record: schedule seed")
		timeout = flag.Duration("timeout", 0, "-record: wall-clock backstop (scenario default when 0)")
		out     = flag.String("o", "", "-record: journal output path (required)")
	)
	flag.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: replay [flags] <journal>")
		fmt.Fprintln(os.Stderr, "       replay -verify <journal>")
		fmt.Fprintln(os.Stderr, "       replay -stats <journal>")
		fmt.Fprintln(os.Stderr, "       replay -diff <a> <b>")
		fmt.Fprintln(os.Stderr, "       replay -record [-proto P -n N -seed S ...] -o <journal>")
		flag.PrintDefaults()
	}
	flag.Parse()
	args := flag.Args()

	modes := 0
	for _, m := range []bool{*verify, *diff, *stats, *record} {
		if m {
			modes++
		}
	}
	if !*record {
		// The point flags describe a run to record; the other modes read
		// everything from their journals, so a point flag there is a mistake.
		var misused string
		flag.Visit(func(f *flag.Flag) {
			if misused == "" && recordOnly[f.Name] {
				misused = f.Name
			}
		})
		if misused != "" {
			return usageErr("-%s is a -record flag; replay, -verify, -stats and -diff read the run from the journal", misused)
		}
	}
	switch {
	case modes > 1:
		return usageErr("-verify, -diff, -stats and -record are mutually exclusive")
	case *record:
		if len(args) != 0 || *out == "" {
			return usageErr("-record wants no positional arguments and a -o path")
		}
		sp.Seeds = strconv.FormatInt(*seed, 10)
		if *timeout != 0 {
			sp.Timeout = timeout.String()
		}
		return runRecord(sp, *out)
	case *diff:
		if len(args) != 2 {
			return usageErr("-diff wants exactly two journals, got %d", len(args))
		}
		return runDiff(args[0], args[1])
	case *verify:
		if len(args) != 1 {
			return usageErr("-verify wants exactly one journal, got %d", len(args))
		}
		return runVerify(args[0])
	case *stats:
		if len(args) != 1 {
			return usageErr("-stats wants exactly one journal, got %d", len(args))
		}
		return runStats(args[0])
	default:
		if len(args) != 1 {
			return usageErr("want exactly one journal, got %d (see -h)", len(args))
		}
		return runReplay(args[0], *window)
	}
}

// recordOnly names the flags that only -record reads.
var recordOnly = map[string]bool{
	"proto": true, "n": true, "seed": true, "delays": true, "crashes": true, "detectors": true,
	"rounds": true, "coordinator": true, "timeout": true, "o": true,
}

// runReplay re-executes the journal's run — the protocol rebuilt from the
// name and parameter its meta records — and asserts every scheduler
// decision against the recorded stream.
func runReplay(path string, window int) int {
	j, err := journal.ReadFile(path)
	if err != nil {
		return usageErr("%v", err)
	}
	printHeader(path, j)
	if err := j.Replayable(); err != nil {
		return usageErr("%s: %v", path, err)
	}
	var cfg scenario.Config
	if err := json.Unmarshal(j.Meta.Config, &cfg); err != nil {
		return usageErr("%s: parse journal config: %v", path, err)
	}
	if j.Meta.Protocol == "" {
		return usageErr("%s: journal records no protocol name to rebuild the run from", path)
	}
	proto, err := cliutil.JournalProtocol(j.Meta, cfg.N)
	if err != nil {
		return usageErr("%s: %v", path, err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	res, err := scenario.Replay(ctx, proto, j)
	switch {
	case ctx.Err() != nil:
		fmt.Fprintf(os.Stderr, "replay: cancelled after %d of %d records\n", res.Matched, len(j.Records))
		return 3
	case err != nil:
		return usageErr("%s: %v", path, err)
	case res.Divergence != nil:
		fmt.Print(res.Divergence.Report(j, window))
		return 1
	default:
		fmt.Printf("replay: %s: all %d records matched; trace fingerprint %s (verdict: %s)\n",
			path, res.Matched, res.Result.TraceFingerprint, verdictWord(res.Result.Verdict.OK))
		return 0
	}
}

// runRecord runs the one scenario point sp describes with full journal
// capture and writes the journal file — the no-failure-needed way to mint a
// replayable artifact (tainted captures are still written: they are
// inspectable, and the refusal belongs to replay/verify). The point is
// built through cliutil.BuildGrid, so the flags mean what cmd/sweep's do; a
// spec that expands to more than one point is refused.
func runRecord(sp cliutil.GridSpec, out string) int {
	base, grid, p, err := cliutil.BuildGrid(sp)
	if err != nil {
		return usageErr("-record: %v", err)
	}
	if size := grid.Size(); size != 1 {
		return usageErr("-record: want exactly one scenario point (one delay range, one crash schedule, one detector), got %d", size)
	}
	cfg := grid.ConfigAt(base.Config(), 0)
	cfg.Journal = scenario.JournalAll

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	res := scenario.FromConfig(cfg).Run(ctx, p)
	if ctx.Err() != nil {
		fmt.Fprintln(os.Stderr, "replay: -record cancelled")
		return 3
	}
	if res.Journal == nil {
		return usageErr("-record: the run produced no journal: %s", res.Verdict)
	}
	data, err := res.Journal.Encode()
	if err != nil {
		return usageErr("-record: %v", err)
	}
	if err := cliutil.WriteFileAtomic(out, data); err != nil {
		return usageErr("-record: %v", err)
	}
	if reason := res.Journal.Meta.TaintReason; reason != "" {
		fmt.Fprintf(os.Stderr, "replay: warning: recorded a tainted run (%s); the journal is inspectable but not replayable\n", reason)
	}
	fmt.Printf("replay: recorded %d records -> %s (verdict: %s, fingerprint %s)\n",
		len(res.Journal.Records), out, verdictWord(res.Verdict.OK), res.Journal.Meta.TraceFingerprint)
	return 0
}

// printHeader summarises a loaded journal before any mode acts on it: the
// protocol, schema and capture mode, the per-kind record counters of the
// recorded trace, and — when the run escaped to wall-clock — the taint
// reason, so a refused replay still tells the reader what the journal holds.
func printHeader(path string, j *journal.Journal) {
	m := j.Meta
	mode := m.Mode
	if mode == "" {
		mode = "full"
	}
	fmt.Printf("replay: %s: proto=%s schema=%d mode=%s records=%d (events=%d messages=%d timers=%d crashes=%d grants=%d)\n",
		path, m.Protocol, m.SchemaVersion, mode, len(j.Records), m.Events, m.Messages, m.Timers, m.Crashes, m.Grants)
	if m.TaintReason != "" {
		fmt.Printf("replay: %s: tainted: %s\n", path, m.TaintReason)
	}
}

// runStats recomputes the probe fold offline — a pure fold over the
// journal's records, no re-execution — asserts it equals the live capture
// stored in the journal's meta, and prints the probes. The equality is the
// point: it proves the journal and the analyzer agree on what the recorded
// schedule did.
func runStats(path string) int {
	j, err := journal.ReadFile(path)
	if err != nil {
		return usageErr("%v", err)
	}
	printHeader(path, j)
	live := j.Meta.Probes
	if live == nil {
		return usageErr("%s: journal carries no live probe capture to check against", path)
	}
	stream, err := j.RecomputeProbes()
	if err != nil {
		return usageErr("%s: %v", path, err)
	}
	recomputed, err := json.Marshal(stream)
	if err != nil {
		return usageErr("%s: encode recomputed probes: %v", path, err)
	}
	recorded, err := json.Marshal(live.Stream)
	if err != nil {
		return usageErr("%s: encode recorded probes: %v", path, err)
	}
	if string(recomputed) != string(recorded) {
		fmt.Fprintf(os.Stderr, "replay: %s: offline probe fold differs from the live capture\n  recorded:   %s\n  recomputed: %s\n", path, recorded, recomputed)
		return 1
	}
	fmt.Printf("replay: %s: offline probe fold over %d records matches the live capture\n", path, stream.Records)
	fmt.Printf("  stream: events=%d messages=%d timers=%d crashes=%d grants=%d exits=%d decisions=%d\n",
		stream.Events, stream.Messages, stream.Timers, stream.Crashes, stream.Grants, stream.Exits, stream.Decisions)
	fmt.Printf("  message_delay:     %s\n", probe.Summary(&stream.MessageDelay))
	fmt.Printf("  quiescence_gap:    %s\n", probe.Summary(&stream.QuiescenceGap))
	fmt.Printf("  decision_latency:  %s\n", probe.Summary(&stream.DecisionLatency))
	fmt.Printf("  decision_depth:    %s\n", probe.Summary(&stream.DecisionDepth))
	fmt.Printf("  crash_to_decision: %s\n", probe.Summary(&stream.CrashToDecision))
	for _, p := range stream.PerProcess {
		fmt.Printf("  p%d: grants=%d sends=%d deliveries=%d\n", p.Proc, p.Grants, p.Sends, p.Deliveries)
	}
	if d := live.Detection; d != nil {
		fmt.Printf("  detection (live capture): crashes=%d detected=%d missed=%d latency %s\n",
			d.Crashes, d.Detected, d.Missed, probe.Summary(&d.Latency))
	}
	return 0
}

// runVerify recomputes the record hash offline. Refusals (tainted runs,
// ring suffixes — journals that have no fingerprint to check) are setup
// errors; an actual hash mismatch is an integrity failure.
func runVerify(path string) int {
	j, err := journal.ReadFile(path)
	if err != nil {
		return usageErr("%v", err)
	}
	if j.Meta.TaintReason != "" || j.Meta.TraceFingerprint == "" || !j.Complete() {
		err := j.Verify()
		return usageErr("%s: %v", path, err)
	}
	if err := j.Verify(); err != nil {
		fmt.Fprintf(os.Stderr, "replay: %s: %v\n", path, err)
		return 1
	}
	fmt.Printf("replay: %s: verified %d records against trace fingerprint %s\n",
		path, len(j.Records), j.Meta.TraceFingerprint)
	return 0
}

// runDiff compares two journals structurally: the meta line first, then the
// record streams index by index, reporting the first difference.
func runDiff(pathA, pathB string) int {
	a, err := journal.ReadFile(pathA)
	if err != nil {
		return usageErr("%v", err)
	}
	b, err := journal.ReadFile(pathB)
	if err != nil {
		return usageErr("%v", err)
	}
	differs := false
	if metaLine(a.Meta) != metaLine(b.Meta) || !bytesEqual(a.Meta.Config, b.Meta.Config) {
		differs = true
		fmt.Printf("meta differs:\n  %s: %s\n  %s: %s\n", pathA, metaLine(a.Meta), pathB, metaLine(b.Meta))
	}
	n := len(a.Records)
	if len(b.Records) < n {
		n = len(b.Records)
	}
	for i := 0; i < n; i++ {
		if a.Records[i] != b.Records[i] {
			differs = true
			fmt.Printf("record streams differ at index %d:\n  %s: %s\n  %s: %s\n",
				a.Meta.FirstIndex+i, pathA, a.Records[i], pathB, b.Records[i])
			break
		}
	}
	if !differs && len(a.Records) != len(b.Records) {
		differs = true
		long, short, longPath := a, b, pathA
		if len(b.Records) > len(a.Records) {
			long, short, longPath = b, a, pathB
		}
		fmt.Printf("record streams differ in length: %s holds %d records, %s holds %d; first extra in %s at index %d:\n  %s\n",
			pathA, len(a.Records), pathB, len(b.Records), longPath, short.Meta.FirstIndex+len(short.Records), long.Records[len(short.Records)])
	}
	if differs {
		return 1
	}
	fmt.Printf("replay: journals are identical (%d records)\n", len(a.Records))
	return 0
}

// metaLine renders a meta for diff output and comparison, eliding the
// embedded config bytes (compared separately).
func metaLine(m journal.Meta) string {
	cfg := m.Config
	m.Config = nil
	data, _ := json.Marshal(m)
	if len(cfg) > 0 {
		return fmt.Sprintf("%s (+%d-byte config)", data, len(cfg))
	}
	return string(data)
}

func bytesEqual(a, b json.RawMessage) bool { return string(a) == string(b) }

func verdictWord(ok bool) string {
	if ok {
		return "pass"
	}
	return "fail"
}

func usageErr(format string, args ...any) int {
	fmt.Fprintf(os.Stderr, "replay: "+format+"\n", args...)
	return 2
}
