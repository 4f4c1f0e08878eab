package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"weakestfd/internal/campaign"
	"weakestfd/internal/check"
	"weakestfd/internal/cliutil"
	"weakestfd/internal/consensus"
	"weakestfd/internal/explore"
	"weakestfd/internal/fd"
	"weakestfd/internal/fdimpl"
	"weakestfd/internal/journal"
	"weakestfd/internal/model"
	"weakestfd/internal/nbac"
	"weakestfd/internal/net"
	"weakestfd/internal/probe"
	"weakestfd/internal/qc"
	"weakestfd/internal/register"
	"weakestfd/internal/scenario"
)

// The isolated unit costs: each layer's own operation, timed alone through
// the layer's public functions at the size the workloads use it. They are
// workload-independent (every traced run reports all of them) and feed the
// share.* attribution, which multiplies them by a workload's exact
// operation counts.

// opBudget is how long one unit cost is sampled for.
const opBudget = 100 * time.Millisecond

// timeOp calls fn — which performs batch operations and returns how long
// they took — repeatedly for about opBudget (at least three times) and
// reports the median time per operation in the given unit.
func timeOp(unit string, perUnit float64, batch int, fn func() time.Duration) metric {
	var samples []float64
	deadline := time.Now().Add(opBudget)
	for len(samples) < 3 || (time.Now().Before(deadline) && len(samples) < 1000) {
		samples = append(samples, float64(fn().Nanoseconds())/float64(batch)/perUnit)
	}
	return metricOf(unit, samples)
}

// Units: divisor from nanoseconds.
const (
	ns = 1.0
	us = 1e3
	ms = 1e6
)

// timed measures one call.
func timed(fn func()) time.Duration {
	start := time.Now()
	fn()
	return time.Since(start)
}

// must panics on a set-up error of a micro-benchmark: their inputs are
// fixed, so a failure is a bug in the benchmark or a broken layer, and the
// traced run reports it as a failed check (see runTraced's recover).
func must(err error) {
	if err != nil {
		panic(err)
	}
}

// ---- net ----

func netStandup(n int) metric {
	return timeOp("us", us, 1, func() time.Duration {
		return timed(func() { net.NewNetwork(n, net.WithSeed(1)).Close() })
	})
}

// inTask runs fn as a scheduler-visible task on a fresh n-process network
// and returns the wall time fn itself took (stand-up excluded).
func inTask(n int, fn func(nw *net.Network, ep *net.Endpoint, t *net.Task, ctx context.Context)) time.Duration {
	nw := net.NewNetwork(n, net.WithSeed(1))
	defer nw.Close()
	took := make(chan time.Duration, 1)
	ep := nw.Endpoint(0)
	nw.Go(ep, "bench", func(t *net.Task) {
		start := time.Now()
		fn(nw, ep, t, net.WithTask(context.Background(), t))
		took <- time.Since(start)
	})
	return <-took
}

// netTimer is one-shot timer lease → fire → wake, from the owning task.
func netTimer() metric {
	const batch = 512
	return timeOp("ns", ns, batch, func() time.Duration {
		return inTask(2, func(_ *net.Network, ep *net.Endpoint, _ *net.Task, ctx context.Context) {
			for i := 0; i < batch; i++ {
				must(ep.Sleep(ctx, time.Millisecond))
			}
		})
	})
}

// netTickerRearm is one periodic fire of a bound ticker: pop, re-arm, wake.
func netTickerRearm() metric {
	const batch = 512
	return timeOp("ns", ns, batch, func() time.Duration {
		return inTask(2, func(_ *net.Network, ep *net.Endpoint, t *net.Task, ctx context.Context) {
			tk := ep.NewTicker(time.Millisecond)
			defer tk.Stop()
			tk.Bind(t)
			for fires := 0; fires < batch; {
				if tk.TryFire() {
					fires++
					continue
				}
				t.Await(ctx)
			}
		})
	})
}

// bouncer is a net.Handler that answers every delivery with one send (or
// one broadcast) until its budget is spent: the whole exchange runs on the
// dispatcher, so it times the event queue and nothing else.
type bouncer struct {
	inst      net.Instance
	broadcast bool
	every     int64 // deliveries per reply
	left      atomic.Int64
	seen      atomic.Int64
	done      chan struct{}
}

func (b *bouncer) HandleMessage(msg net.Message) {
	if b.seen.Add(1)%b.every != 0 {
		return
	}
	if b.left.Add(-1) < 0 {
		select {
		case <-b.done:
		default:
			close(b.done)
		}
		return
	}
	if b.broadcast {
		b.inst.Broadcast("m", nil)
	} else {
		b.inst.Send(msg.From, "m", nil)
	}
}

// netSendDeliver is one message through the event queue — push, pop,
// handler dispatch — with the heap preloaded to depth far-future entries.
func netSendDeliver(depth int) metric {
	const batch = 4096
	return timeOp("ns", ns, batch, func() time.Duration {
		nw := net.NewNetwork(2, net.WithSeed(1))
		defer nw.Close()
		// Frozen until the first message is queued: with nothing earlier
		// pending, the dispatcher would jump the clock to the residents.
		nw.Freeze()
		for i := 0; i < depth; i++ {
			// Crash events an hour out: heap residents that never pop while
			// a message (at most 200µs out) is in flight.
			nw.ScheduleCrash(1, time.Hour+time.Duration(i))
		}
		done := make(chan struct{})
		for p := 0; p < 2; p++ {
			b := &bouncer{inst: nw.Endpoint(model.ProcessID(p)).Instance("bench"), every: 1, done: done}
			b.left.Store(batch / 2)
			b.inst.Handle(b)
		}
		nw.Endpoint(0).Send(1, "bench", "m", nil)
		return timed(func() {
			nw.Thaw()
			<-done
		})
	})
}

// netBroadcast is one message of a batched broadcast at n=200: enqueue of
// the batch, then n pops and dispatches (a broadcast reaches its sender too).
func netBroadcast() metric {
	const n, rounds = 200, 16
	return timeOp("ns", ns, rounds*n, func() time.Duration {
		nw := net.NewNetwork(n, net.WithSeed(1))
		defer nw.Close()
		// One handler for every receiver; process 0 broadcasts again once
		// the previous batch has been delivered in full.
		b := &bouncer{inst: nw.Endpoint(0).Instance("bench"), broadcast: true, every: n, done: make(chan struct{})}
		b.left.Store(rounds - 1)
		for p := 0; p < n; p++ {
			nw.Endpoint(model.ProcessID(p)).Instance("bench").Handle(b)
		}
		return timed(func() {
			b.inst.Broadcast("m", nil)
			<-b.done
		})
	})
}

// netGrant is one grant handoff: two tasks pass a turn back and forth, so
// every step is dispatcher → task → dispatcher. The turn is rechecked around
// every Await, since a task's first grant absorbs a wake issued before it.
func netGrant() metric {
	const batch = 2048
	return timeOp("ns", ns, 2*batch, func() time.Duration {
		nw := net.NewNetwork(2, net.WithSeed(1))
		defer nw.Close()
		took := make(chan time.Duration, 1)
		var tasks [2]*net.Task
		var turn atomic.Int32
		player := func(me int32) func(*net.Task) {
			return func(t *net.Task) {
				start := time.Now()
				for i := 0; i < batch; i++ {
					for turn.Load() != me {
						t.Await(nil)
					}
					turn.Store(1 - me)
					tasks[1-me].Wake()
				}
				if me == 1 {
					took <- time.Since(start)
				}
			}
		}
		nw.Freeze() // both tasks exist before either takes a step
		tasks[0] = nw.Go(nw.Endpoint(0), "ping", player(0))
		tasks[1] = nw.Go(nw.Endpoint(1), "pong", player(1))
		nw.Thaw()
		return <-took
	})
}

// ---- the canned journaled run: journal, probe, trace hash, replay ----

// canned is one recorded consensus run at the replay workload's size, and
// the forms of it the journal/probe/hash costs are taken over.
type canned struct {
	res     scenario.Result
	journal *journal.Journal
	encoded []byte
	records []net.TraceRecord
}

func recordCanned(ctx context.Context, l replayLeg, seed int64) *canned {
	delays, err := cliutil.ParseDelays(l.delays)
	must(err)
	crashes, err := cliutil.ParseCrashes(l.crashes, l.n)
	must(err)
	proto, err := cliutil.BuildProtocol(l.proto, l.n, 1, 0)
	must(err)
	c := &canned{}
	c.res = scenario.New(l.n, scenario.WithSeed(seed), scenario.WithDelays(delays[0].Min, delays[0].Max),
		scenario.WithCrashes(crashes[0]...), scenario.WithJournal(scenario.JournalAll)).Run(ctx, proto)
	if !c.res.Verdict.OK || c.res.Journal == nil {
		panic(fmt.Sprintf("canned journal run failed: %v", c.res.Verdict))
	}
	c.journal = c.res.Journal
	c.encoded, err = c.journal.Encode()
	must(err)
	for i := range c.journal.Records {
		tr, err := c.journal.Records[i].ToNet()
		must(err)
		c.records = append(c.records, tr)
	}
	return c
}

func (c *canned) perRecord(fn func()) metric {
	return timeOp("ns", ns, len(c.records), func() time.Duration { return timed(fn) })
}

func (c *canned) traceHash() metric {
	return c.perRecord(func() {
		h := sha256.New()
		var buf [128]byte
		for i := range c.records {
			h.Write(c.records[i].AppendHash(buf[:0]))
		}
		h.Sum(nil)
	})
}

func (c *canned) journalRecord() metric {
	return c.perRecord(func() {
		rec := journal.NewRecorder(journal.KeepAll)
		for _, tr := range c.records {
			rec.Record(tr)
		}
	})
}

func (c *canned) journalEncode() metric {
	return c.perRecord(func() {
		_, err := c.journal.Encode()
		must(err)
	})
}

func (c *canned) journalDecode() metric {
	return c.perRecord(func() {
		_, err := journal.Decode(c.encoded)
		must(err)
	})
}

func (c *canned) journalVerify() metric {
	return c.perRecord(func() { must(c.journal.Verify()) })
}

func (c *canned) probeFold() metric {
	return c.perRecord(func() {
		a := probe.NewAnalyzer(c.res.Config.N)
		for _, tr := range c.records {
			a.Record(tr)
		}
		a.Finish()
	})
}

func (c *canned) probeAggAdd() metric {
	const batch = 256
	return timeOp("us", us, batch, func() time.Duration {
		agg := probe.NewAgg()
		return timed(func() {
			for i := 0; i < batch; i++ {
				agg.Add(c.res.Probes)
			}
		})
	})
}

func (c *canned) probeAggMerge() metric {
	const batch = 256
	other := probe.NewAgg()
	other.Add(c.res.Probes)
	return timeOp("us", us, batch, func() time.Duration {
		agg := probe.NewAgg()
		return timed(func() {
			for i := 0; i < batch; i++ {
				must(agg.Merge(other))
			}
		})
	})
}

func (c *canned) replay(ctx context.Context, proto scenario.Protocol) metric {
	return timeOp("us", us, 1, func() time.Duration {
		return timed(func() {
			rr, err := scenario.Replay(ctx, proto, c.journal)
			must(err)
			if !rr.OK() {
				panic(rr.Divergence.Error())
			}
		})
	})
}

// ---- fd, model, fdimpl ----

func fdBuild(spec fd.DetectorSpec, n int) metric {
	const batch = 64
	pattern, clock := model.NewFailurePattern(n), net.NewClock()
	return timeOp("us", us, batch, func() time.Duration {
		return timed(func() {
			for i := 0; i < batch; i++ {
				_, err := fd.DefaultRegistry().Build(fd.Env{Pattern: pattern, Clock: clock}, spec)
				must(err)
			}
		})
	})
}

var sampleSink model.ProcessSet

// fdSample is one Σ query through the generic binding at n=10.
func fdSample() metric {
	const batch = 4096
	clock := net.NewClock()
	suite, err := fd.Build(model.NewFailurePattern(10), clock, fd.DetectorSpec{Class: fd.ClassOmegaSigma})
	must(err)
	var det fd.Sigma = fd.BindTo(1, suite.Sigma, clock)
	return timeOp("ns", ns, batch, func() time.Duration {
		return timed(func() {
			for i := 0; i < batch; i++ {
				sampleSink = det.Sample()
			}
		})
	})
}

// modelCheckHistory is the Σ specification check over a full history ring
// (scenario.DefaultHistoryLimit samples) at n=10.
func modelCheckHistory() metric {
	const n = 10
	pattern := model.NewFailurePattern(n)
	hist := model.NewHistory()
	for i := 0; i < scenario.DefaultHistoryLimit; i++ {
		hist.Record(model.ProcessID(i%n), model.Time(i), model.AllProcesses(n))
	}
	return timeOp("us", us, 1, func() time.Duration {
		return timed(func() {
			if v := model.CheckSigma(pattern, hist, model.DefaultCheckOptions()); !v.OK {
				panic(v.String())
			}
		})
	})
}

// heartbeatIdle stands the heartbeat ensemble of the heartbeat workload up
// on an otherwise idle n-process network and lets virtualMS of virtual time
// pass. It returns the messages the detectors sent (read by the waiting
// task while it holds the scheduling token, so the count is exact) and the
// wall time that virtual time cost.
func heartbeatIdle(l sweepLeg, seed int64, virtualMS int) (msgs int64, wall time.Duration) {
	specs, err := fd.ParseSpecList(l.detectors)
	must(err)
	delays, err := cliutil.ParseDelays(l.delays)
	must(err)
	nw := net.NewNetwork(l.n, net.WithSeed(seed), net.WithDelays(delays[0].Min, delays[0].Max))
	defer nw.Close()
	nw.Freeze()
	suite, err := fdimpl.BuildHeartbeat(fd.Env{Pattern: nw.Pattern(), Clock: nw.Clock(), Runtime: nw}, specs[0])
	must(err)
	defer suite.Stop()
	type reading struct {
		msgs int64
		wall time.Duration
	}
	out := make(chan reading, 1)
	ep := nw.Endpoint(0)
	nw.Go(ep, "bench.idle", func(t *net.Task) {
		start := time.Now()
		must(ep.Sleep(net.WithTask(context.Background(), t), time.Duration(virtualMS)*time.Millisecond))
		out <- reading{nw.Metrics().Get("msgs.sent"), time.Since(start)}
	})
	nw.Thaw()
	r := <-out
	return r.msgs, r.wall
}

// ---- protocols: raw-network round trips, no harness ----

// roundTrip runs one participant call per process concurrently and fails
// on the first error.
func roundTrip(n int, call func(i int) error) {
	errs := make(chan error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := call(i); err != nil {
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	must(<-errs)
}

func consensusPropose(ctx context.Context, n int) metric {
	return timeOp("us", us, 1, func() time.Duration {
		return timed(func() {
			nw := net.NewNetwork(n, net.WithSeed(1))
			defer nw.Close()
			g := consensus.NewOmegaSigmaGroup(nw, "bench",
				&fd.OracleOmega{Pattern: nw.Pattern(), Clock: nw.Clock()}, &fd.OracleSigma{Pattern: nw.Pattern(), Clock: nw.Clock()})
			defer g.Stop()
			roundTrip(n, func(i int) error { _, err := g[i].Propose(ctx, i); return err })
		})
	})
}

func oraclePsi(nw *net.Network) *fd.OraclePsi {
	return &fd.OraclePsi{Pattern: nw.Pattern(), Clock: nw.Clock(), Policy: fd.PreferFSOnFailure}
}

func qcPropose(ctx context.Context, n int) metric {
	return timeOp("us", us, 1, func() time.Duration {
		return timed(func() {
			nw := net.NewNetwork(n, net.WithSeed(1))
			defer nw.Close()
			g := qc.NewPsiGroup(nw, "bench", oraclePsi(nw))
			defer g.Stop()
			roundTrip(n, func(i int) error { _, err := g[i].Propose(ctx, i); return err })
		})
	})
}

func nbacVote(ctx context.Context, n int) metric {
	return timeOp("us", us, 1, func() time.Duration {
		return timed(func() {
			nw := net.NewNetwork(n, net.WithSeed(1))
			defer nw.Close()
			g := nbac.NewPsiFSGroup(nw, "bench", oraclePsi(nw), &fd.OracleFS{Pattern: nw.Pattern(), Clock: nw.Clock()})
			defer g.Stop()
			roundTrip(n, func(i int) error { _, err := g.Participants[i].Vote(ctx, nbac.VoteYes); return err })
		})
	})
}

// registerWriteRead is one ABD write plus one read on a long-lived Σ group.
func registerWriteRead(ctx context.Context, n int) metric {
	const batch = 32
	nw := net.NewNetwork(n, net.WithSeed(1))
	defer nw.Close()
	g := register.NewSigmaGroup[int](nw, "bench", &fd.OracleSigma{Pattern: nw.Pattern(), Clock: nw.Clock()})
	defer g.Stop()
	return timeOp("us", us, batch, func() time.Duration {
		return timed(func() {
			for i := 0; i < batch; i++ {
				must(g[0].Write(ctx, i))
				_, err := g[1].Read(ctx)
				must(err)
			}
		})
	})
}

// ---- check: canned outcomes at workload size ----

func passing(v model.Verdict) {
	if !v.OK {
		panic(v.String())
	}
}

// checkCost times the spec checker the named protocol's runs end with, on
// a canned all-correct outcome of n processes.
func checkCost(proto string, n int) metric {
	pattern := model.NewFailurePattern(n)
	decisions := func(v any) []check.Decision {
		ds := make([]check.Decision, n)
		for i := range ds {
			ds[i] = check.Decision{Process: model.ProcessID(i), Value: v, Time: model.Time(100 + i)}
		}
		return ds
	}
	proposals := map[model.ProcessID]any{}
	for i := 0; i < n; i++ {
		proposals[model.ProcessID(i)] = i
	}
	var fn func()
	switch proto {
	case "consensus":
		o := check.ConsensusOutcome{Proposals: proposals, Decisions: decisions(0)}
		fn = func() { passing(check.CheckConsensus(pattern, o, true)) }
	case "qc":
		o := check.QCOutcome{Proposals: proposals, Decisions: decisions(check.QCDecision{Value: 0})}
		fn = func() { passing(check.CheckQC(pattern, o, true)) }
	case "nbac":
		o := check.NBACOutcome{Votes: map[model.ProcessID]check.Vote{}, Decisions: decisions(true)}
		for i := 0; i < n; i++ {
			o.Votes[model.ProcessID(i)] = check.VoteYes
		}
		fn = func() { passing(check.CheckNBAC(pattern, o, true)) }
	case "registers":
		// The registers workload's shape: every process writes i+1, all
		// writes overlapping, then every process reads, all reads
		// overlapping and agreeing on the last write linearized.
		var ops []check.Op
		for i := 0; i < n; i++ {
			ops = append(ops, check.Op{Process: model.ProcessID(i), Kind: check.OpWrite, Value: i + 1, Start: model.Time(i), End: model.Time(2*n + i), Complete: true})
		}
		for i := 0; i < n; i++ {
			ops = append(ops, check.Op{Process: model.ProcessID(i), Kind: check.OpRead, Value: n, Start: model.Time(4*n + i), End: model.Time(6*n + i), Complete: true})
		}
		o := check.RegisterOutcome{Ops: ops}
		fn = func() { passing(check.CheckRegister(pattern, o, true)) }
	default:
		panic("checkCost: unknown protocol " + proto)
	}
	const batch = 16
	return timeOp("us", us, batch, func() time.Duration {
		return timed(func() {
			for i := 0; i < batch; i++ {
				fn()
			}
		})
	})
}

// ---- explore, campaign, cliutil: a fixed small campaign ----

// toolingCosts runs a three-unit explore campaign of the campaign
// workload's shape in dir and the same three explorations directly, and
// fills the explore.*, campaign.* and cliutil.report_* figures from them.
func toolingCosts(ctx context.Context, leg campaignLeg, seed int64, workers int, dir string, out map[string]metric, exact map[string]float64) {
	const units, budget = 3, 256
	spec := leg.spec
	spec.Seed, spec.Runs = seed, budget
	raw, err := json.Marshal(spec)
	must(err)
	manifest := func() *campaign.Manifest {
		m, err := newManifest(raw, units, 1)
		must(err)
		return m
	}

	// Direct explorations: wall per exploration, wall per run inside it.
	var exploreWall, runWall time.Duration
	var signature metric
	for u := 0; u < units; u++ {
		m := manifest()
		opts, err := m.Explore.Options(m.UnitSeed(u))
		must(err)
		opts.Workers = workers
		var inRuns atomic.Int64
		var keep atomic.Pointer[scenario.Result]
		opts.OnRun = func(_ int, res *scenario.Result) {
			inRuns.Add(int64(res.Wall))
			if keep.Load() == nil {
				r := *res
				keep.CompareAndSwap(nil, &r)
			}
		}
		var rep *explore.Report
		exploreWall += timed(func() { rep, err = explore.Explore(ctx, opts) })
		must(err)
		runWall += time.Duration(inRuns.Load())
		if u == 0 {
			exact["explore.corpus_size"] = float64(len(rep.Corpus))
			exact["explore.behaviour_classes"] = float64(len(rep.Behaviours))
			res := keep.Load()
			signature = timeOp("us", us, 64, func() time.Duration {
				return timed(func() {
					for i := 0; i < 64; i++ {
						explore.SignatureOf(res, false, true)
					}
				})
			})
		}
	}
	out["explore.signature_us"] = signature
	out["explore.overhead_share"] = metricOf("share", []float64{1 - runWall.Seconds()/(float64(workers)*exploreWall.Seconds())})

	// The same work through the campaign layer, three times over for a
	// median: plan, run the one shard, merge.
	var plan, shard, merge []float64
	var unitReport []byte
	for i := 0; i < 3; i++ {
		must(os.RemoveAll(dir))
		plan = append(plan, timed(func() { must(campaign.Plan(dir, manifest())) }).Seconds()*1e3)
		shard = append(shard, timed(func() {
			_, _, err := campaign.RunShard(ctx, campaign.RunOptions{Dir: dir, Shard: 1, Workers: workers})
			must(err)
		}).Seconds()*1e3)
		var merged *campaign.Merged
		merge = append(merge, timed(func() { merged, err = campaign.MergeDir(dir) }).Seconds()*1e3/units)
		must(err)
		data, err := merged.Marshal()
		must(err)
		exact["campaign.report_bytes"] = float64(len(data))
		unitReport, err = os.ReadFile(campaign.UnitReportPath(dir, 0))
		must(err)
	}
	out["campaign.plan_ms"] = metricOf("ms", plan)
	out["campaign.merge_ms_per_report"] = metricOf("ms", merge)
	overhead := make([]float64, len(shard))
	for i, s := range shard {
		overhead[i] = s - exploreWall.Seconds()*1e3
	}
	out["campaign.runshard_overhead_ms"] = metricOf("ms", overhead)

	// One explore unit report through the shared report schema.
	var rep *cliutil.ExploreReport
	out["cliutil.report_decode_ms"] = timeOp("ms", ms, 1, func() time.Duration {
		return timed(func() {
			_, rep, err = cliutil.ReadAnyReport("unit report", unitReport)
			must(err)
		})
	})
	out["cliutil.report_encode_ms"] = timeOp("ms", ms, 1, func() time.Duration {
		return timed(func() {
			_, err := json.MarshalIndent(rep, "", "  ")
			must(err)
		})
	})
}

// gridSpecOf is the cliutil.GridSpec of a sweep leg: what cmd/sweep builds
// from the flags makePlan generates.
func gridSpecOf(l sweepLeg, base int64, workers int) cliutil.GridSpec {
	return cliutil.GridSpec{Proto: l.proto, N: l.n, Rounds: 8, Seeds: seedRange(base, l.seeds), Detectors: l.detectors,
		Delays: l.delays, Crashes: l.crashes, Timeout: l.timeout, Workers: workers, Keep: 8, Probes: l.probes}
}

func parseGrid(sp cliutil.GridSpec) metric {
	const batch = 64
	return timeOp("us", us, batch, func() time.Duration {
		return timed(func() {
			for i := 0; i < batch; i++ {
				_, _, _, err := cliutil.BuildGrid(sp)
				must(err)
			}
		})
	})
}

// unitCosts measures every isolated unit cost. scratch is a directory the
// campaign figures may write under.
func unitCosts(ctx context.Context, all []workload, seed int64, workers int, scratch string) (map[string]metric, map[string]float64) {
	m := map[string]metric{}
	exact := map[string]float64{}
	base := seedBase(seed)
	four, _ := findWorkload(all, "four_problems_n10")
	hb, _ := findWorkload(all, "heartbeat_n16")
	camp, _ := findWorkload(all, "explore_campaign")
	rp, _ := findWorkload(all, "replay_pipeline_n100")

	m["net.standup_us"] = netStandup(10)
	m["net.timer_ns"] = netTimer()
	m["net.ticker_rearm_ns"] = netTickerRearm()
	m["net.send_deliver_ns.d100"] = netSendDeliver(100)
	m["net.send_deliver_ns.d10000"] = netSendDeliver(10000)
	m["net.broadcast_ns_per_msg"] = netBroadcast()
	m["net.grant_ns"] = netGrant()

	c := recordCanned(ctx, *rp.replay, base+1)
	m["net.trace_hash_ns_per_record"] = c.traceHash()
	m["journal.record_ns_per_record"] = c.journalRecord()
	m["journal.encode_ns_per_record"] = c.journalEncode()
	m["journal.decode_ns_per_record"] = c.journalDecode()
	m["journal.verify_ns_per_record"] = c.journalVerify()
	exact["journal.bytes_per_record"] = float64(len(c.encoded)) / float64(len(c.records))
	proto, err := cliutil.BuildProtocol(rp.replay.proto, rp.replay.n, 1, 0)
	must(err)
	m["scenario.replay_us"] = c.replay(ctx, proto)
	m["probe.fold_ns_per_record"] = c.probeFold()
	m["probe.agg_add_us"] = c.probeAggAdd()
	m["probe.agg_merge_us"] = c.probeAggMerge()

	m["fd.build_us"] = fdBuild(fd.DetectorSpec{Class: fd.ClassOmegaSigma}, 10)
	m["fd.sample_ns"] = fdSample()
	m["model.check_history_us"] = modelCheckHistory()
	const idleMS = 50
	var idle []float64
	for i := 0; i < 3; i++ {
		msgs, wall := heartbeatIdle(hb.sweeps[0], base+1, idleMS)
		exact["fdimpl.msgs_per_virtual_ms"] = float64(msgs) / idleMS
		idle = append(idle, float64(wall.Nanoseconds())/idleMS)
	}
	m["fdimpl.idle_ns_per_virtual_ms"] = metricOf("ns", idle)

	m["consensus.propose_us.n10"] = consensusPropose(ctx, 10)
	m["consensus.propose_us.n200"] = consensusPropose(ctx, 200)
	m["qc.propose_us"] = qcPropose(ctx, 10)
	m["nbac.vote_us"] = nbacVote(ctx, 10)
	m["register.write_read_us"] = registerWriteRead(ctx, 10)

	m["check.consensus_us.n200"] = checkCost("consensus", 200)
	m["check.qc_us"] = checkCost("qc", 10)
	m["check.nbac_us"] = checkCost("nbac", 10)
	m["check.linearizable_us"] = checkCost("registers", 10)

	toolingCosts(ctx, *camp.campaign, base+1, workers, filepath.Join(scratch, "campaign"), m, exact)
	m["cliutil.parse_grid_us"] = parseGrid(gridSpecOf(four.sweeps[0], base, workers))

	for name, v := range exact {
		m[name] = metricOf(exactUnits[name], []float64{v})
	}
	return m, exact
}

// exactUnits names the unit of each machine-independent count.
var exactUnits = map[string]string{
	"net.events_per_run":         "count",
	"net.msgs_per_run":           "count",
	"net.timers_per_run":         "count",
	"net.grants_per_run":         "count",
	"journal.bytes_per_record":   "B",
	"fdimpl.msgs_per_virtual_ms": "1/ms",
	"explore.corpus_size":        "count",
	"explore.behaviour_classes":  "count",
	"campaign.report_bytes":      "B",
}
