// Package bench holds the perf benchmarks of the runtime and the protocol
// stack: consensus round-trips, NBAC, register operations and the raw
// delivery path, each at several system sizes and in both scheduler modes.
//
// Run them with
//
//	go test ./internal/bench -bench . -benchmem
//
// and regenerate the committed BENCH_net.json snapshot with
//
//	BENCH_JSON=1 go test ./internal/bench -run EmitBenchJSON -v
package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path"
	"regexp"
	"runtime"
	"strconv"
	"sync"
	"testing"
	"time"

	"weakestfd/internal/campaign"
	"weakestfd/internal/cliutil"
	"weakestfd/internal/consensus"
	"weakestfd/internal/explore"
	"weakestfd/internal/fd"
	"weakestfd/internal/model"
	"weakestfd/internal/nbac"
	"weakestfd/internal/net"
	"weakestfd/internal/register"
	"weakestfd/internal/scenario"
)

const benchTimeout = 30 * time.Second

func oracleOmegaSigma(nw *net.Network) (*fd.OracleOmega, *fd.OracleSigma) {
	return &fd.OracleOmega{Pattern: nw.Pattern(), Clock: nw.Clock()},
		&fd.OracleSigma{Pattern: nw.Pattern(), Clock: nw.Clock()}
}

// consensusRoundTrip runs one full (Ω, Σ) ballot-consensus instance — network
// setup, n concurrent proposers, all deciding — and returns an error if any
// correct process failed to decide.
func consensusRoundTrip(n int, opts ...net.Option) error {
	ctx, cancel := context.WithTimeout(context.Background(), benchTimeout)
	defer cancel()
	return consensusRoundTripCtx(ctx, n, opts...)
}

// consensusRoundTripCtx is consensusRoundTrip with the watchdog context
// hoisted out, so benchmark loops can build it once per run instead of
// paying the context machinery on every measured iteration.
func consensusRoundTripCtx(ctx context.Context, n int, opts ...net.Option) error {
	nw := net.NewNetwork(n, opts...)
	defer nw.Close()
	omega, sigma := oracleOmegaSigma(nw)
	group := consensus.NewOmegaSigmaGroup(nw, "bench", omega, sigma)
	defer group.Stop()

	errs := make(chan error, n)
	var wg sync.WaitGroup
	wg.Add(n)
	// One slab of proposer states, spawned as `go ps[i].run()`: the goroutine
	// wrapper captures only the receiver pointer, so the harness costs one
	// allocation per proposer instead of one closure plus boxed loop index.
	// At n in the hundreds the harness would otherwise dominate the very
	// steady-state numbers this benchmark exists to pin down.
	ps := make([]proposer, n)
	for i := range ps {
		ps[i] = proposer{c: group[i], ctx: ctx, val: i, errs: errs, wg: &wg}
		go ps[i].run()
	}
	wg.Wait()
	close(errs)
	return <-errs
}

// proposer is one benchmark participant: a BallotConsensus plus the arguments
// of its Propose call, runnable as a goroutine method.
type proposer struct {
	c    *consensus.BallotConsensus
	ctx  context.Context
	val  int
	errs chan error
	wg   *sync.WaitGroup
}

func (p *proposer) run() {
	defer p.wg.Done()
	if _, err := p.c.Propose(p.ctx, p.val); err != nil {
		p.errs <- err
	}
}

func benchConsensus(b *testing.B, n int, opts ...net.Option) {
	b.ReportAllocs()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
	defer cancel()
	for i := 0; i < b.N; i++ {
		if err := consensusRoundTripCtx(ctx, n, opts...); err != nil {
			b.Fatalf("consensus: %v", err)
		}
	}
}

func BenchmarkConsensus(b *testing.B) {
	for _, n := range []int{3, 10, 50, 200} {
		b.Run(fmt.Sprintf("virtual/n=%d", n), func(b *testing.B) {
			benchConsensus(b, n, net.WithSeed(1))
		})
	}
}

func nbacRoundTrip(n int, opts ...net.Option) error {
	nw := net.NewNetwork(n, opts...)
	defer nw.Close()
	psi := &fd.OraclePsi{Pattern: nw.Pattern(), Clock: nw.Clock(), SwitchAfter: 0, Policy: fd.PreferFSOnFailure}
	fs := &fd.OracleFS{Pattern: nw.Pattern(), Clock: nw.Clock()}
	group := nbac.NewPsiFSGroup(nw, "bench", psi, fs)
	defer group.Stop()

	ctx, cancel := context.WithTimeout(context.Background(), benchTimeout)
	defer cancel()
	errs := make(chan error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := group.Participants[i].Vote(ctx, nbac.VoteYes); err != nil {
				errs <- err
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	return <-errs
}

func BenchmarkNBAC(b *testing.B) {
	for _, n := range []int{3, 10} {
		b.Run(fmt.Sprintf("virtual/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := nbacRoundTrip(n, net.WithSeed(1)); err != nil {
					b.Fatalf("nbac: %v", err)
				}
			}
		})
	}
}

// BenchmarkRegisterOps measures one ABD write plus one read per iteration on
// a long-lived Σ-based register group.
func BenchmarkRegisterOps(b *testing.B) {
	for _, n := range []int{3, 10, 50} {
		b.Run(fmt.Sprintf("virtual/n=%d", n), func(b *testing.B) {
			nw := net.NewNetwork(n, net.WithSeed(1))
			defer nw.Close()
			_, sigma := oracleOmegaSigma(nw)
			group := register.NewSigmaGroup[int](nw, "bench", sigma)
			defer group.Stop()
			ctx, cancel := context.WithTimeout(context.Background(), benchTimeout)
			defer cancel()

			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := group[0].Write(ctx, i); err != nil {
					b.Fatalf("write: %v", err)
				}
				if _, err := group[1%n].Read(ctx); err != nil {
					b.Fatalf("read: %v", err)
				}
			}
		})
	}
}

// sweepProto is the benchmark's protocol: (Ω, Σ) ballot consensus with
// poll/backoff scaled to the injected delays, so waiting stays event-driven.
func sweepProto() scenario.Protocol {
	return scenario.Consensus{Options: []consensus.Option{
		consensus.WithPollInterval(10 * time.Millisecond),
		consensus.WithBackoff(20 * time.Millisecond),
	}}
}

// sweepCrashSets is the rotating fault-schedule family of the scenario
// benchmarks: crash-free, a mid-run follower crash, and a mid-ballot crash
// of the initial leader.
var sweepCrashSets = [][]scenario.Crash{
	nil,
	{{P: 4, At: 5 * time.Millisecond}},
	{{P: 0, At: 8 * time.Millisecond}},
}

// BenchmarkScenarioRun measures one full scenario cycle: stand up a
// 5-process cluster, run (Ω, Σ) consensus under a 1–50ms adversarial delay
// distribution plus a rotating crash schedule, check the consensus spec and
// tear the cluster down. The injected delays would cost ~100ms wall-clock
// per run if anything waited them out.
func BenchmarkScenarioRun(b *testing.B) {
	ctx := context.Background()
	proto := sweepProto()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := scenario.New(5,
			scenario.WithSeed(int64(i+1)),
			scenario.WithDelays(time.Millisecond, 50*time.Millisecond),
			scenario.WithCrashes(sweepCrashSets[i%len(sweepCrashSets)]...),
		)
		if res := s.Run(ctx, proto); !res.Verdict.OK {
			b.Fatalf("run %d: %v", i, res.Verdict)
		}
	}
}

// benchScenarioConsensus is one scenario-harness consensus run per
// iteration. Unlike benchConsensus's raw networks, the harness arms the
// trace group, so the step scheduler's digest — and, with WithJournal, the
// journal recorder — is live: the baseline/journaled pair isolates exactly
// the cost of capturing the record stream at emit time.
func benchScenarioConsensus(b *testing.B, n int, opts ...scenario.Option) {
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := scenario.New(n, append([]scenario.Option{scenario.WithSeed(int64(i + 1))}, opts...)...)
		if res := s.Run(ctx, scenario.Consensus{}); !res.Verdict.OK {
			b.Fatalf("run %d: %v", i, res.Verdict)
		}
	}
}

// BenchmarkConsensusJournaled prices the trace journal: the same traced
// scenario run with and without the journal recorder attached. The
// committed consensus_n10_journal_overhead datapoint is the n=10 ratio.
func BenchmarkConsensusJournaled(b *testing.B) {
	for _, n := range []int{10, 50} {
		n := n
		b.Run(fmt.Sprintf("baseline/n=%d", n), func(b *testing.B) {
			benchScenarioConsensus(b, n)
		})
		b.Run(fmt.Sprintf("journaled/n=%d", n), func(b *testing.B) {
			benchScenarioConsensus(b, n, scenario.WithJournal(scenario.JournalAll))
		})
	}
}

// BenchmarkConsensusProbed prices the streaming probe analyzer: the same
// traced scenario run with and without the probe fold riding the recorder
// tee. The committed consensus_n10_probe_overhead datapoint is the n=10
// probed/baseline ratio (the baseline is the ConsensusJournaled one).
func BenchmarkConsensusProbed(b *testing.B) {
	for _, n := range []int{10, 50} {
		n := n
		b.Run(fmt.Sprintf("baseline/n=%d", n), func(b *testing.B) {
			benchScenarioConsensus(b, n)
		})
		b.Run(fmt.Sprintf("probed/n=%d", n), func(b *testing.B) {
			benchScenarioConsensus(b, n, scenario.WithProbes())
		})
	}
}

// multiConsensusRounds is the instance count of the amortised workload
// benchmark: one cluster stood up, multiConsensusRounds back-to-back
// consensus instances run on it.
const multiConsensusRounds = 16

// benchMultiConsensus is the amortised-workload loop shared by the named
// benchmark and the snapshot emitter (the emitter's testing.Benchmark needs
// the loop directly, without a b.Run wrapper): network, oracles and
// participants are stood up once per iteration and reused across every
// round, so ns/op ÷ rounds approaches the protocol's own round-trip cost
// instead of being dominated by cluster setup.
func benchMultiConsensus(b *testing.B) {
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res := scenario.New(5, scenario.WithSeed(int64(i+1))).Run(ctx, scenario.MultiConsensus{Rounds: multiConsensusRounds})
		if !res.Verdict.OK {
			b.Fatalf("run %d: %v", i, res.Verdict)
		}
	}
}

func BenchmarkMultiConsensus(b *testing.B) {
	b.Run(fmt.Sprintf("virtual/n=5/rounds=%d", multiConsensusRounds), benchMultiConsensus)
}

// sweepThroughput runs one fixed-size scenario.Sweep at system size n and
// returns it, for the committed runs-per-second data points (includes the
// sweep's own fan-out machinery, unlike BenchmarkScenarioRun). The emitter
// runs it twice: the historical n=5 series and an n=100 point that exercises
// the batched-broadcast delivery path at cluster scale.
func sweepThroughput(n, runs int) scenario.SweepResult {
	base := scenario.New(n, scenario.WithDelays(time.Millisecond, 50*time.Millisecond))
	seeds := make([]int64, runs/len(sweepCrashSets))
	for i := range seeds {
		seeds[i] = int64(i + 1)
	}
	return scenario.Sweep(context.Background(), base, scenario.Grid{Seeds: seeds, Crashes: sweepCrashSets}, sweepProto())
}

// exploreThroughput runs one fixed-budget coverage-guided exploration, for
// the committed explore_runs_per_sec data point: the full feedback loop
// (signatures, corpus, energy, mutation planning) on top of the per-run
// cost. The alphabet holds only the classes that solve consensus under
// arbitrary crash schedules (oracle Σ and P's accurate complement both
// route around any number of crashes), so no run waits out a
// non-termination timeout — the metric measures engine throughput, not
// wall-clock backstops; the ◇ classes' failure-finding lives in
// internal/explore's own tests.
func exploreThroughput(runs int) (*explore.Report, error) {
	return explore.Explore(context.Background(), explore.Options{
		Seed:  1,
		Runs:  runs,
		Proto: scenario.Consensus{},
		Base: scenario.New(5,
			scenario.WithDelays(time.Millisecond, 3*time.Millisecond),
			scenario.WithTimeout(2*time.Second),
		).Config(),
		Classes: []fd.DetectorSpec{
			{Class: fd.ClassOmegaSigma},
			{Class: fd.ClassPerfect},
		},
	})
}

// campaignMergeThroughput measures cmd/campaign's aggregation path: folding
// explore unit reports (each carrying a real exploration's corpus, behaviour
// set and failure table) into one campaign report. The units are
// differently-seeded copies of one real exploration — the same shape a
// many-shard campaign hands the merger — so the metric covers fingerprint
// checks, corpus union with canonical-encoding collision resolution and the
// count re-assertions, per report folded.
func campaignMergeThroughput(units int) (float64, error) {
	rep, err := exploreThroughput(128)
	if err != nil {
		return 0, err
	}
	unit := cliutil.NewExploreReport(explore.Options{}, rep)
	unit.SpaceFingerprint = "bench"
	inputs := make([]campaign.Input, units)
	for i := range inputs {
		r := unit
		r.Seed = int64(i + 1)
		inputs[i] = campaign.Input{Name: fmt.Sprintf("unit-%d", i), Explore: &r}
	}
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := campaign.MergeReports(inputs); err != nil {
				b.Fatalf("merge: %v", err)
			}
		}
	})
	return float64(units) / (float64(res.NsPerOp()) / 1e9), nil
}

// constOmega is a constant Ω source: the cheapest possible Source[V], so a
// benchmark over it isolates the generic Bind[V] query path itself (process
// binding, nil-history check, interface dispatch).
type constOmega struct{}

func (constOmega) At(model.ProcessID) model.ProcessID { return 0 }

// bindSink keeps the benchmarked samples observable so the loop is not
// eliminated.
var bindSink model.ProcessID

// BenchmarkBindSample measures the generic Bind[V] query path through the
// Detector[V] interface — the per-query overhead every protocol pays on top
// of its source. It must stay 0 allocs/op: the adapter is a value, the
// history check a nil test, and a ProcessID sample does not escape.
func BenchmarkBindSample(b *testing.B) {
	var det fd.Omega = fd.BindTo[model.ProcessID](1, constOmega{}, net.NewClock())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bindSink = det.Sample()
	}
}

// TestBindSampleZeroAllocs pins the acceptance bar directly (the benchmark
// reports it; this fails the suite if it regresses).
func TestBindSampleZeroAllocs(t *testing.T) {
	var det fd.Omega = fd.BindTo[model.ProcessID](1, constOmega{}, net.NewClock())
	if allocs := testing.AllocsPerRun(1000, func() { bindSink = det.Sample() }); allocs != 0 {
		t.Fatalf("generic Bind query path allocates %.1f allocs/op, want 0", allocs)
	}
}

// ---- committed benchmark snapshot ----

type benchResult struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
}

// layerBenchLine matches one `go test -bench -benchmem` result line.
var layerBenchLine = regexp.MustCompile(`(?m)^Benchmark(\S+?)(?:-\d+)?\s+\d+\s+([\d.]+) ns/op\s+(\d+) B/op\s+(\d+) allocs/op`)

// layerBenchmarks runs the benchmarks of package pkg matching pattern and
// reads back their standard result lines, want of them, named
// <package>/<benchmark>. The layer benchmarks drive unexported operations
// (the event queue, the journal record codec), so they live in their
// packages' own tests and run there.
func layerBenchmarks(t *testing.T, pkg, pattern string, want int) []benchResult {
	out, err := exec.Command("go", "test", pkg, "-run", "^$", "-bench", pattern, "-benchmem").CombinedOutput()
	if err != nil {
		t.Fatalf("%s benchmarks: %v\n%s", pkg, err, out)
	}
	var results []benchResult
	for _, m := range layerBenchLine.FindAllSubmatch(out, -1) {
		r := benchResult{Name: path.Base(pkg) + "/" + string(m[1])}
		r.NsPerOp, _ = strconv.ParseFloat(string(m[2]), 64)
		r.BytesPerOp, _ = strconv.ParseInt(string(m[3]), 10, 64)
		r.AllocsPerOp, _ = strconv.ParseInt(string(m[4]), 10, 64)
		results = append(results, r)
		t.Logf("%s: %v ns/op %d B/op %d allocs/op", r.Name, r.NsPerOp, r.BytesPerOp, r.AllocsPerOp)
	}
	if len(results) != want {
		t.Fatalf("parsed %d %s benchmark results, want %d:\n%s", len(results), pkg, want, out)
	}
	return results
}

// TestEmitBenchJSON regenerates BENCH_net.json at the repo root so the perf
// trajectory has committed data points. Gated behind BENCH_JSON=1 because it
// runs the full benchmark matrix.
func TestEmitBenchJSON(t *testing.T) {
	if os.Getenv("BENCH_JSON") == "" {
		t.Skip("set BENCH_JSON=1 to regenerate BENCH_net.json")
	}
	var results []benchResult
	add := func(name string, fn func(b *testing.B)) *testing.BenchmarkResult {
		r := testing.Benchmark(fn)
		results = append(results, benchResult{
			Name:        name,
			NsPerOp:     float64(r.NsPerOp()),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
		})
		t.Logf("%s: %v", name, r)
		return &r
	}

	for _, n := range []int{3, 10, 50, 200} {
		n := n
		add(fmt.Sprintf("Consensus/virtual/n=%d", n), func(b *testing.B) {
			benchConsensus(b, n, net.WithSeed(1))
		})
	}
	for _, n := range []int{3, 10} {
		n := n
		add(fmt.Sprintf("NBAC/virtual/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := nbacRoundTrip(n, net.WithSeed(1)); err != nil {
					b.Fatalf("nbac: %v", err)
				}
			}
		})
	}
	for _, n := range []int{3, 10, 50} {
		n := n
		add(fmt.Sprintf("RegisterOps/virtual/n=%d", n), func(b *testing.B) {
			nw := net.NewNetwork(n, net.WithSeed(1))
			defer nw.Close()
			_, sigma := oracleOmegaSigma(nw)
			group := register.NewSigmaGroup[int](nw, "bench", sigma)
			defer group.Stop()
			ctx, cancel := context.WithTimeout(context.Background(), benchTimeout)
			defer cancel()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := group[0].Write(ctx, i); err != nil {
					b.Fatalf("write: %v", err)
				}
				if _, err := group[1%n].Read(ctx); err != nil {
					b.Fatalf("read: %v", err)
				}
			}
		})
	}
	add("ScenarioRun/consensus/n=5", BenchmarkScenarioRun)
	// The journal capture overhead: the same traced scenario run with and
	// without the journal recorder. The committed datapoint is the n=10
	// ratio, with an emit-time acceptance ceiling — capture appends one
	// struct per record on the already-serialized recorder path, so anything
	// past 1.5x means the hook grew real work.
	jBase10 := add("ConsensusJournaled/baseline/n=10", func(b *testing.B) {
		benchScenarioConsensus(b, 10)
	})
	jFull10 := add("ConsensusJournaled/journaled/n=10", func(b *testing.B) {
		benchScenarioConsensus(b, 10, scenario.WithJournal(scenario.JournalAll))
	})
	add("ConsensusJournaled/baseline/n=50", func(b *testing.B) {
		benchScenarioConsensus(b, 50)
	})
	add("ConsensusJournaled/journaled/n=50", func(b *testing.B) {
		benchScenarioConsensus(b, 50, scenario.WithJournal(scenario.JournalAll))
	})
	journalOverhead := float64(jFull10.NsPerOp()) / float64(jBase10.NsPerOp())
	// The probe fold overhead against the same baseline: the analyzer does
	// integer bucketing per record on the serialized recorder path, cheaper
	// than the journal's per-record struct capture, so its ceiling is
	// tighter.
	pFull10 := add("ConsensusProbed/probed/n=10", func(b *testing.B) {
		benchScenarioConsensus(b, 10, scenario.WithProbes())
	})
	probeOverhead := float64(pFull10.NsPerOp()) / float64(jBase10.NsPerOp())
	mc := add(fmt.Sprintf("MultiConsensus/virtual/n=5/rounds=%d", multiConsensusRounds), benchMultiConsensus)
	mcRoundsPerSec := float64(multiConsensusRounds) / (float64(mc.NsPerOp()) / 1e9)
	sweep := sweepThroughput(5, 1500)
	if sweep.Faulted > 0 {
		t.Errorf("scenario sweep: %d of %d runs failed", sweep.Faulted, sweep.Runs)
	}
	t.Logf("scenario sweep: %d runs, %.0f runs/s", sweep.Runs, sweep.RunsPerSec)
	sweep100 := sweepThroughput(100, 60)
	if sweep100.Faulted > 0 {
		t.Errorf("scenario sweep n=100: %d of %d runs failed", sweep100.Faulted, sweep100.Runs)
	}
	t.Logf("scenario sweep n=100: %d runs, %.1f runs/s", sweep100.Runs, sweep100.RunsPerSec)
	exp, err := exploreThroughput(512)
	if err != nil {
		t.Fatalf("explore: %v", err)
	}
	if exp.FirstFailureRun != 0 {
		t.Errorf("explore throughput workload hit a failure at run %d (alphabet should be failure-free)", exp.FirstFailureRun)
	}
	t.Logf("explore: %d runs, %d behaviour classes, %.0f runs/s", exp.Runs, exp.Novel, exp.RunsPerSec)
	mergeRate, err := campaignMergeThroughput(16)
	if err != nil {
		t.Fatalf("campaign merge: %v", err)
	}
	t.Logf("campaign merge: %.0f reports/s", mergeRate)

	bind := add("BindSample", BenchmarkBindSample)
	if bind.AllocsPerOp() != 0 {
		t.Errorf("generic Bind query path allocates %d allocs/op, want 0", bind.AllocsPerOp())
	}
	results = append(results, layerBenchmarks(t, "weakestfd/internal/net", "^Benchmark(QueuePushPop|QueueBroadcast|TickerRearm)$", 5)...)
	results = append(results, layerBenchmarks(t, "weakestfd/internal/journal", "^Benchmark(Encode|Decode|Verify)$", 3)...)

	out := struct {
		GeneratedBy     string        `json:"generated_by"`
		GoVersion       string        `json:"go_version"`
		DelayRange      string        `json:"delay_range"`
		JournalOverhead float64       `json:"consensus_n10_journal_overhead"`
		ProbeOverhead   float64       `json:"consensus_n10_probe_overhead"`
		SweepRuns       int           `json:"scenario_sweep_runs"`
		SweepRunsSec    float64       `json:"scenario_sweep_runs_per_sec"`
		Sweep100Runs    int           `json:"scenario_sweep_n100_runs"`
		Sweep100RunsSec float64       `json:"scenario_sweep_n100_runs_per_sec"`
		MultiRoundsSec  float64       `json:"multiconsensus_rounds_per_sec"`
		ExploreRuns     int           `json:"explore_runs"`
		ExploreRunsSec  float64       `json:"explore_runs_per_sec"`
		ExploreCoverage int           `json:"explore_behaviour_classes"`
		MergeReportsSec float64       `json:"campaign_merge_reports_per_sec"`
		Results         []benchResult `json:"results"`
	}{
		GeneratedBy:     "BENCH_JSON=1 go test ./internal/bench -run EmitBenchJSON -v",
		GoVersion:       runtime.Version(),
		DelayRange:      "[0, 200µs]",
		JournalOverhead: journalOverhead,
		ProbeOverhead:   probeOverhead,
		SweepRuns:       sweep.Runs,
		SweepRunsSec:    sweep.RunsPerSec,
		Sweep100Runs:    sweep100.Runs,
		Sweep100RunsSec: sweep100.RunsPerSec,
		MultiRoundsSec:  mcRoundsPerSec,
		ExploreRuns:     exp.Runs,
		ExploreRunsSec:  exp.RunsPerSec,
		ExploreCoverage: exp.Novel,
		MergeReportsSec: mergeRate,
		Results:         results,
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	data = append(data, '\n')
	if err := os.WriteFile("../../BENCH_net.json", data, 0o644); err != nil {
		t.Fatalf("write BENCH_net.json: %v", err)
	}
	t.Logf("consensus n=10 journal capture overhead: %.2fx", journalOverhead)
	if journalOverhead > 1.5 {
		t.Errorf("journal capture overhead %.2fx exceeds the 1.5x emit-time ceiling", journalOverhead)
	}
	t.Logf("consensus n=10 probe fold overhead: %.2fx", probeOverhead)
	if probeOverhead > 1.2 {
		t.Errorf("probe fold overhead %.2fx exceeds the 1.2x ceiling", probeOverhead)
	}
}
