package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"weakestfd/internal/campaign"
	"weakestfd/internal/cliutil"
	"weakestfd/internal/explore"
	"weakestfd/internal/fd"
	"weakestfd/internal/fdimpl"
	"weakestfd/internal/journal"
	"weakestfd/internal/scenario"
)

// The traced run repeats a workload's work in-process, through the same
// public functions the CLIs call, with a span around every call into a
// layer. It writes the same artifacts the CLIs write, so the same output
// check applies, and it reports the per-layer metrics: the isolated unit
// costs (layers.go), the workload's exact operation counts, and the share.*
// attribution that multiplies one by the other. End-to-end figures never
// come from here.

// runStat is what one scenario run contributes to the attribution.
type runStat struct {
	wall     time.Duration
	par      int // the worker count of the fan-out the run ran in; 0 outside one
	n        int
	proto    string // workload.go's protocol name, the check-cost key
	detector fd.DetectorSpec
	probes   bool
	journal  bool
	events   int64
	msgs     int64
	timers   int64
	grants   int64
	// protoMsgs counts the messages sent on the protocol's own instance;
	// the rest of msgs is detector traffic (the heartbeat class).
	protoMsgs int64
	virtual   time.Duration
}

func statOf(res *scenario.Result, proto string, par int) runStat {
	ts := res.TraceSummary
	return runStat{
		wall: res.Wall, par: par, n: res.Config.N, proto: proto, detector: res.Config.Detector,
		probes: res.Config.Probes, journal: res.Config.Journal != 0,
		events: ts.Events, msgs: ts.Messages, timers: ts.Timers, grants: ts.Grants,
		protoMsgs: res.Metrics["msgs.sent.scn"], virtual: res.VirtualEnd,
	}
}

// collector gathers run statistics from concurrent OnRun callbacks; nil
// gathers nothing.
type collector struct {
	mu   sync.Mutex
	runs []runStat
}

func (c *collector) add(r runStat) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.runs = append(c.runs, r)
	c.mu.Unlock()
}

// inProcess executes the plan's workload once through the layers' public
// functions, writing the plan's artifacts. tr == nil is the untraced pass.
func (e *env) inProcess(ctx context.Context, w workload, p *plan, seed int64, tr *tracer, col *collector) (time.Duration, error) {
	if err := p.resetOutputs(); err != nil {
		return 0, err
	}
	start := time.Now()
	var err error
	switch {
	case w.sweeps != nil:
		err = e.sweepsInProcess(ctx, w, p, seed, tr, col)
	case w.campaign != nil:
		err = e.campaignInProcess(ctx, w, p, tr)
	case w.replay != nil:
		err = e.replayInProcess(ctx, w, p, seed, tr, col)
	}
	return time.Since(start), err
}

// spanned runs fn inside a root span.
func spanned(tr *tracer, name string, fn func() error) error {
	id := tr.begin(0, name)
	defer tr.end(id)
	return fn()
}

func (e *env) sweepsInProcess(ctx context.Context, w workload, p *plan, seed int64, tr *tracer, col *collector) error {
	for i, l := range w.sweeps {
		sp := gridSpecOf(l, seedBase(seed), e.workers)
		var base *scenario.Scenario
		var grid scenario.Grid
		var proto scenario.Protocol
		if err := spanned(tr, "cliutil.BuildGrid", func() (err error) {
			base, grid, proto, err = cliutil.BuildGrid(sp)
			return err
		}); err != nil {
			return err
		}
		sweepID := tr.begin(0, "scenario.Sweep")
		grid.OnRun = func(_ int, res *scenario.Result) {
			tr.add(sweepID, "scenario.Run", res.Wall)
			if col != nil {
				col.add(statOf(res, l.proto, e.workers))
			}
		}
		res := scenario.Sweep(ctx, base, grid, proto)
		tr.end(sweepID)
		if err := ctx.Err(); err != nil {
			return err
		}
		if err := spanned(tr, "cliutil.WriteJSON", func() error {
			return cliutil.WriteJSON(p.invocations[i].artifacts[0].path, sweepReportOf(sp, base, grid, proto, res))
		}); err != nil {
			return err
		}
	}
	return nil
}

// sweepReportOf assembles the report cmd/sweep writes for a finished sweep
// (retained failures without the optional journals and minimisation).
func sweepReportOf(sp cliutil.GridSpec, base *scenario.Scenario, grid scenario.Grid, proto scenario.Protocol, res scenario.SweepResult) cliutil.SweepReport {
	rep := cliutil.SweepReport{
		SchemaVersion:   cliutil.ReportSchemaVersion,
		GeneratedBy:     "bench (in-process)",
		GoVersion:       runtime.Version(),
		GridFingerprint: grid.Fingerprint(base.Config()),
		Proto:           proto.Name(),
		N:               sp.N,
		GridSize:        res.GridSize,
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
			Index: res.FailureIndices[i], Violations: f.Verdict.Violations, Fingerprint: f.Fingerprint(), Config: f.Config,
		})
	}
	return rep
}

// newManifest is the manifest `campaign plan -name bench -explore spec` builds
// from an explore spec's JSON.
func newManifest(spec []byte, units, shards int) (*campaign.Manifest, error) {
	m := &campaign.Manifest{Name: "bench", Kind: campaign.KindExplore, Units: units, Shards: shards, Explore: &campaign.ExploreSpec{}}
	if err := json.Unmarshal(spec, m.Explore); err != nil {
		return nil, fmt.Errorf("parse the explore spec: %w", err)
	}
	return m, nil
}

// manifestOf builds the workload's campaign manifest from the generated
// spec file.
func manifestOf(c *campaignLeg, specPath string) (*campaign.Manifest, error) {
	data, err := os.ReadFile(specPath)
	if err != nil {
		return nil, err
	}
	return newManifest(data, c.units, c.shards)
}

func (e *env) campaignInProcess(ctx context.Context, w workload, p *plan, tr *tracer) error {
	c := w.campaign
	dir := filepath.Join(p.outDir, "campaign")
	merge := p.invocations[len(p.invocations)-1]
	m, err := manifestOf(c, filepath.Join(filepath.Dir(p.outDir), "in", "explore-spec.json"))
	if err != nil {
		return err
	}
	if err := spanned(tr, "campaign.Plan", func() error { return campaign.Plan(dir, m) }); err != nil {
		return err
	}
	for k := 1; k <= c.shards; k++ {
		if err := spanned(tr, "campaign.RunShard", func() error {
			_, _, err := campaign.RunShard(ctx, campaign.RunOptions{Dir: dir, Shard: k, Workers: e.workers})
			return err
		}); err != nil {
			return err
		}
	}
	var merged *campaign.Merged
	if err := spanned(tr, "campaign.MergeDir", func() (err error) {
		merged, err = campaign.MergeDir(dir)
		return err
	}); err != nil {
		return err
	}
	merged.GeneratedBy, merged.GoVersion = "bench (in-process)", runtime.Version()
	return spanned(tr, "cliutil.WriteJSON", func() error {
		if err := cliutil.WriteJSON(merge.artifacts[0].path, merged); err != nil {
			return err
		}
		return cliutil.WriteFileAtomic(merge.artifacts[1].path, []byte(merged.Canonical()))
	})
}

// exploreDirect runs the campaign's explorations directly, one per unit,
// for what RunShard hides: the wall time inside explore.Explore and the
// statistics of every run.
func exploreDirect(ctx context.Context, c *campaignLeg, specPath string, workers int) (exploreWall time.Duration, runs []runStat, err error) {
	m, err := manifestOf(c, specPath)
	if err != nil {
		return 0, nil, err
	}
	col := &collector{}
	for u := 0; u < c.units; u++ {
		opts, err := m.Explore.Options(m.UnitSeed(u))
		if err != nil {
			return 0, nil, err
		}
		opts.Workers = workers
		opts.OnRun = func(_ int, res *scenario.Result) { col.add(statOf(res, c.spec.Proto, workers)) }
		start := time.Now()
		if _, err := explore.Explore(ctx, opts); err != nil {
			return 0, nil, err
		}
		exploreWall += time.Since(start)
	}
	return exploreWall, col.runs, nil
}

func (e *env) replayInProcess(ctx context.Context, w workload, p *plan, seed int64, tr *tracer, col *collector) error {
	r := w.replay
	delays, err := cliutil.ParseDelays(r.delays)
	if err != nil {
		return err
	}
	crashes, err := cliutil.ParseCrashes(r.crashes, r.n)
	if err != nil {
		return err
	}
	timeout, err := time.ParseDuration(r.timeout)
	if err != nil {
		return err
	}
	proto, err := cliutil.BuildProtocol(r.proto, r.n, 8, 0)
	if err != nil {
		return err
	}
	base := seedBase(seed)
	for i := 0; i < r.seeds; i++ {
		path := p.invocations[4*i].artifacts[0].path
		// replay -record
		var res scenario.Result
		_ = spanned(tr, "scenario.Run", func() error {
			res = scenario.New(r.n, scenario.WithSeed(base+1+int64(i)), scenario.WithDelays(delays[0].Min, delays[0].Max),
				scenario.WithCrashes(crashes[0]...), scenario.WithTimeout(timeout), scenario.WithJournal(scenario.JournalAll)).Run(ctx, proto)
			return nil
		})
		if res.Journal == nil {
			return fmt.Errorf("journal %d: the run produced no journal: %v", i, res.Verdict)
		}
		col.add(statOf(&res, r.proto, 0))
		var data []byte
		if err := spanned(tr, "journal.Encode", func() (err error) { data, err = res.Journal.Encode(); return err }); err != nil {
			return err
		}
		if err := spanned(tr, "cliutil.WriteFileAtomic", func() error { return cliutil.WriteFileAtomic(path, data) }); err != nil {
			return err
		}
		load := func() (j *journal.Journal, err error) {
			err = spanned(tr, "journal.ReadFile", func() (err error) { j, err = journal.ReadFile(path); return err })
			return j, err
		}
		// replay -verify
		j, err := load()
		if err != nil {
			return err
		}
		if err := spanned(tr, "journal.Verify", j.Verify); err != nil {
			return fmt.Errorf("journal %d: %w", i, err)
		}
		// replay -stats
		if j, err = load(); err != nil {
			return err
		}
		if err := spanned(tr, "journal.RecomputeProbes", func() error {
			stream, err := j.RecomputeProbes()
			if err != nil {
				return err
			}
			recomputed, _ := json.Marshal(stream)
			recorded, _ := json.Marshal(j.Meta.Probes.Stream)
			if string(recomputed) != string(recorded) {
				return fmt.Errorf("offline probe fold differs from the live capture")
			}
			return nil
		}); err != nil {
			return fmt.Errorf("journal %d: %w", i, err)
		}
		// replay
		if j, err = load(); err != nil {
			return err
		}
		if err := spanned(tr, "scenario.Replay", func() error {
			rr, err := scenario.Replay(ctx, proto, j)
			if err != nil {
				return err
			}
			if !rr.OK() {
				return rr.Divergence
			}
			col.add(statOf(&rr.Result, r.proto, 0))
			return nil
		}); err != nil {
			return fmt.Errorf("journal %d: %w", i, err)
		}
	}
	return nil
}

// costModel turns one run's exact operation counts into modelled time per
// layer, using the isolated unit costs. Costs that depend on the run's size
// or class (stand-up, detector build, spec check) are measured on demand at
// that size and kept.
type costModel struct {
	unit  map[string]metric
	sized map[string]float64 // ns
}

func (c *costModel) sizedCost(key string, measure func() metric, perUnit float64) float64 {
	if v, ok := c.sized[key]; ok {
		return v
	}
	v := measure().Value * perUnit
	c.sized[key] = v
	return v
}

// run returns the modelled nanoseconds per layer of one run.
func (c *costModel) run(r runStat) map[string]float64 {
	ns := func(name string) float64 { return c.unit[name].Value }
	sendDeliver := ns("net.send_deliver_ns.d100")
	if r.n*r.n >= 10000 {
		sendDeliver = ns("net.send_deliver_ns.d10000") // n² messages resident
	}
	records := float64(r.events + r.grants)
	out := map[string]float64{}
	out["net"] = c.sizedCost(fmt.Sprintf("standup/%d", r.n), func() metric { return netStandup(r.n) }, us) +
		records*ns("net.trace_hash_ns_per_record")
	if r.detector.Class == fdimpl.ClassHeartbeat {
		// The detectors' own traffic — their messages, tickers and the
		// grants both cause — is priced as a whole by the idle cost; only
		// the protocol's messages are left for the queue.
		out["fdimpl"] = r.virtual.Seconds() * 1e3 * ns("fdimpl.idle_ns_per_virtual_ms")
		out["net"] += float64(r.protoMsgs) * sendDeliver
	} else {
		// The workloads' timer events are poll-ticker fires, and one fire —
		// pop, re-arm, wake and the grant that resumes the poller — is what
		// net.ticker_rearm_ns times; only grants beyond those are priced on
		// their own.
		out["net"] += float64(r.msgs)*sendDeliver + float64(r.timers)*ns("net.ticker_rearm_ns") +
			float64(max(0, r.grants-r.timers))*ns("net.grant_ns")
		out["fd"] = c.sizedCost(fmt.Sprintf("build/%s/%d", r.detector.Class, r.n), func() metric { return fdBuild(r.detector, r.n) }, us)
	}
	out["check"] = c.sizedCost(fmt.Sprintf("check/%s/%d", r.proto, r.n), func() metric { return checkCost(r.proto, r.n) }, us)
	if r.probes || r.journal {
		out["probe"] = records * ns("probe.fold_ns_per_record")
	}
	if r.journal {
		out["journal"] = records * ns("journal.record_ns_per_record")
	}
	return out
}

// shareLayers are the layers the attribution reports, in order.
var shareLayers = []string{"net", "fd", "fdimpl", "check", "probe", "journal", "scenario", "explore", "campaign", "cliutil", "unattributed"}

// attribute splits the wall time of one traced pass over the layers. Calls
// that are not fan-outs contribute their measured self time to their own
// layer. A fan-out (Sweep, or RunShard over Explore) of wall W whose runs
// took R in total on par workers contributes W − R/par — its own overhead —
// to its layer, and the runs' time is split by the cost model. What neither
// explains is share.unattributed: protocol logic and scheduler waiting. The
// shares sum to 1 by construction; the remainder is reported, not hidden.
func attribute(spans []span, runs []runStat, exploreWall time.Duration, model *costModel) map[string]float64 {
	share := map[string]float64{}
	self := selfTimes(spans)
	var total, sweeps, runShard float64
	for _, s := range spans {
		if s.Parent == 0 {
			total += float64(s.duration())
		}
		switch s.Name {
		case "scenario.Sweep":
			sweeps += float64(s.duration())
		case "campaign.RunShard":
			runShard += float64(s.duration())
		case "scenario.Run", "scenario.Replay":
			// A run: split by the cost model below.
		default:
			share[layerOf(s.Name)] += float64(self[s.ID])
		}
	}
	var fanned float64 // wall the fan-outs spent inside runs: Σ wall/par
	for _, r := range runs {
		if r.par > 0 {
			fanned += float64(r.wall) / float64(r.par)
		}
		for layer, ns := range model.run(r) {
			share[layer] += ns / float64(max(r.par, 1))
		}
	}
	switch {
	case runShard > 0:
		share["campaign"] += runShard - float64(exploreWall)
		share["explore"] += float64(exploreWall) - fanned
	case sweeps > 0:
		share["scenario"] += sweeps - fanned
	}
	explained := 0.0
	for layer := range share {
		share[layer] /= total
		explained += share[layer]
	}
	share["unattributed"] = 1 - explained
	return share
}

// runTraced is one traced run of a workload: a CLI round for the output
// check and the CLI overhead, untraced and traced in-process passes in
// alternation, then the isolated unit costs.
func (e *env) runTraced(ctx context.Context, w workload, o runOptions) (res *result, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("traced run: %v", r)
		}
	}()
	res = &result{Workload: w.name, Seed: o.seed, Scale: o.scale.name, Traced: true, Metrics: map[string]metric{}, Exact: map[string]float64{}}
	p, _, err := e.setUp(ctx, w, o.seed)
	if err != nil {
		return nil, err
	}
	digests := map[string]int{}
	note := func(what string, failed, attempted int, complaints []string, digest string) {
		res.Attempted += attempted
		res.Failed += failed
		res.Digest = digest
		digests[digest]++
		for _, c := range complaints {
			res.Complaints = append(res.Complaints, what+": "+c)
		}
	}
	check := func(what string) {
		rc := checkArtifacts(p)
		failed := 0
		for _, f := range rc.failed {
			failed += f
		}
		note(what, failed, p.units(), rc.complaints, rc.digest)
	}

	cli, err := e.runRound(ctx, p)
	if err != nil {
		return nil, err
	}
	note("cli", cli.failed, cli.attempted, cli.complaints, cli.digest)

	var untraced, traced []float64
	var first []span
	var runs []runStat
	var mem struct{ bytes, mallocs float64 }
	start := time.Now()
	for i := 0; i == 0 || time.Since(start).Seconds() < o.seconds/2; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		wall, err := e.inProcess(ctx, w, p, o.seed, nil, nil)
		if err != nil {
			return nil, fmt.Errorf("in-process pass: %w", err)
		}
		runtime.ReadMemStats(&after)
		untraced = append(untraced, wall.Seconds())
		check("in-process")
		if i == 0 {
			mem.bytes, mem.mallocs = float64(after.TotalAlloc-before.TotalAlloc), float64(after.Mallocs-before.Mallocs)
		}

		tr := newTracer(fmt.Sprintf("%s/seed%d/pass%d", w.name, o.seed, i))
		var col *collector
		if i == 0 && w.campaign == nil {
			col = &collector{}
		}
		if wall, err = e.inProcess(ctx, w, p, o.seed, tr, col); err != nil {
			return nil, fmt.Errorf("traced in-process pass: %w", err)
		}
		traced = append(traced, wall.Seconds())
		check("traced in-process")
		if i == 0 {
			first = tr.snapshot()
			if col != nil {
				runs = col.runs
			}
		}
	}
	if err := writeSpans(filepath.Join(e.benchDir, "out", fmt.Sprintf("%s.seed%d.spans.jsonl", w.name, o.seed)), first); err != nil {
		return nil, err
	}

	var exploreWall time.Duration
	if w.campaign != nil {
		specPath := filepath.Join(filepath.Dir(p.outDir), "in", "explore-spec.json")
		if exploreWall, runs, err = exploreDirect(ctx, w.campaign, specPath, e.workers); err != nil {
			return nil, err
		}
	}

	// The unit costs come last: they leave pooled timer goroutines
	// and a large heap behind, and a pass should meet the process
	// as fresh as a CLI child does (run first, they made the in-process
	// campaign 12% slower than its CLI round).
	costs, exact := unitCosts(ctx, workloads(o.scale), o.seed, e.workers, filepath.Join(e.buildDir, "work", "unit-costs"))
	for name, m := range costs {
		res.Metrics[name] = m
	}
	for name, v := range exact {
		res.Exact[name] = v
	}

	// The workload's own figures.
	var events, msgs, timers, grants, inRuns float64
	var walls []float64
	for _, r := range runs {
		events += float64(r.events)
		msgs += float64(r.msgs)
		timers += float64(r.timers)
		grants += float64(r.grants)
		inRuns += float64(r.wall)
		walls = append(walls, float64(r.wall)/1e3)
	}
	nruns := float64(len(runs))
	for name, v := range map[string]float64{
		"net.events_per_run": events / nruns, "net.msgs_per_run": msgs / nruns,
		"net.timers_per_run": timers / nruns, "net.grants_per_run": grants / nruns,
	} {
		res.Exact[name] = v
		res.Metrics[name] = metricOf(exactUnits[name], []float64{v})
	}
	res.Metrics["net.ns_per_event"] = metricOf("ns", []float64{inRuns / events})
	p50, p90 := percentile(walls, 0.5), percentile(walls, 0.9)
	lo, hi := minMax(walls)
	res.Metrics["scenario.run_us.p50"] = metric{Value: p50, Unit: "us", Min: lo, Max: hi, Samples: len(walls)}
	res.Metrics["scenario.run_us.p90"] = metric{Value: p90, Unit: "us", Min: lo, Max: hi, Samples: len(walls)}
	res.Metrics["scenario.alloc_kb_per_run"] = metricOf("kB", []float64{mem.bytes / 1024 / nruns})
	res.Metrics["scenario.allocs_per_run"] = metricOf("count", []float64{mem.mallocs / nruns})

	// Fan-out overhead: 1 − Σ run wall ÷ (workers × fan-out wall).
	fanWall := float64(exploreWall)
	for _, s := range first {
		if s.Name == "scenario.Sweep" {
			fanWall += float64(s.duration())
		}
	}
	overhead := 0.0
	if fanWall > 0 {
		overhead = 1 - inRuns/(float64(e.workers)*fanWall)
	}
	res.Metrics["scenario.sweep_overhead_share"] = metricOf("share", []float64{overhead})

	u, t := median(untraced), median(traced)
	res.Metrics["trace.overhead_share"] = metric{Value: (t - u) / t, Unit: "share", Min: (t - u) / t, Max: (t - u) / t, Samples: len(traced)}
	res.Metrics["cli.overhead_share"] = metricOf("share", []float64{(cli.wall - u) / cli.wall})

	model := &costModel{unit: costs, sized: map[string]float64{}}
	shares := attribute(first, runs, exploreWall, model)
	for _, layer := range shareLayers {
		res.Metrics["share."+layer] = metricOf("share", []float64{shares[layer]})
	}

	res.FailedShare = float64(res.Failed) / float64(res.Attempted)
	res.Correct = res.Failed == 0
	if len(digests) != 1 {
		res.Correct = false
		res.Complaints = append(res.Complaints, fmt.Sprintf("the CLI round and the in-process passes disagree: %d distinct output digests", len(digests)))
	}
	for name, m := range res.Metrics {
		if m.Value != m.Value { // NaN: a figure with no samples behind it
			res.Correct = false
			res.Complaints = append(res.Complaints, name+" could not be computed")
			m.Value, m.Min, m.Max = 0, 0, 0
			res.Metrics[name] = m
		}
	}
	if err := e.checkGolden(res, false); err != nil {
		return nil, err
	}
	return res, nil
}
