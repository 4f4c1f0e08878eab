// Package scenario is the declarative harness that stands up a whole cluster
// in one call: network, fault schedule, detector family, protocol
// participants and spec checking. The paper's results are statements over
// *all* failure patterns and schedules; this package is the API for
// quantifying over them executably — a Scenario describes one point of that
// space (seed, delay distribution, drop rate, crash schedule, detector
// delays), Run executes a protocol on it under the virtual-time scheduler
// and feeds the outcomes straight into internal/check, and Sweep fans a
// seed × delay × crash-timing grid across worker goroutines.
//
// A run costs zero wall-clock waiting: every protocol pause (poll intervals,
// backoffs, inter-instance spacing) and every injected delay rides the
// virtual clock of internal/net, and scheduled crashes are events on the
// same queue, ordered against deliveries by (time, seq) like everything
// else. Millions of adversarial schedules are a loop, not a cluster.
//
//	res := scenario.New(5,
//	    scenario.WithSeed(7),
//	    scenario.WithDelays(time.Millisecond, 20*time.Millisecond),
//	    scenario.WithCrash(0, 5*time.Millisecond),
//	).Run(ctx, scenario.Consensus{})
//	if !res.Verdict.OK { ... }
package scenario

import (
	"context"
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"time"

	"weakestfd/internal/fd"
	_ "weakestfd/internal/fdimpl" // registers the message-passing "heartbeat" detector class
	"weakestfd/internal/journal"
	"weakestfd/internal/model"
	"weakestfd/internal/net"
	"weakestfd/internal/probe"
)

// Crash is one entry of a scenario's fault schedule: process P crashes once
// the network's virtual clock reaches At. The crash is executed by the
// event dispatcher itself, so for a fixed seed it is ordered against message
// deliveries deterministically.
type Crash struct {
	P  model.ProcessID
	At time.Duration
}

// Config is the complete description of one scenario. Build it with New and
// the With* options; the zero values of individual fields match the
// defaults of internal/net (seed 1, delays [0, 200µs], reliable links, no
// crashes, exact oracles).
type Config struct {
	// N is the number of processes.
	N int
	// Seed drives both the delay and the drop RNG streams.
	Seed int64
	// MinDelay and MaxDelay bound the per-message delivery delay.
	MinDelay, MaxDelay time.Duration
	// DropRate is the per-message drop probability (0 = reliable links; the
	// paper's model). A lossy run may legitimately lose liveness, so
	// combining DropRate > 0 with RequireTermination is usually wrong.
	DropRate float64
	// Crashes is the fault schedule, in virtual time.
	Crashes []Crash
	// Detector is the declarative detector specification: a registry class
	// ("omega-sigma", "perfect", "eventually-perfect", "eventually-strong",
	// or anything registered on fd.DefaultRegistry) plus quality parameters.
	// The zero value is the exact paper family.
	Detector fd.DetectorSpec
	// RequireTermination makes the spec check enforce that every correct
	// process returns. New sets it; WithSafetyOnly clears it.
	RequireTermination bool
	// Timeout bounds the run in wall-clock time (a liveness backstop; the
	// run itself never waits out virtual delays). New sets 30s.
	Timeout time.Duration
	// HistoryLimit caps the run's suspect-list sample history (a
	// model.History ring of the most recent samples, recorded through
	// fd.Bind for detector classes with a suspect view). New sets
	// DefaultHistoryLimit; 0 or negative disables recording. The retained
	// depth is surfaced as Result.HistoryDepth — bounded detector-activity
	// signal, not a checker input.
	HistoryLimit int
	// Journal selects trace journaling: 0 (the default) captures nothing,
	// JournalAll captures the run's full record stream into Result.Journal,
	// and k > 0 ring-buffers the last k records (cheap always-on capture
	// that yields a suffix journal once it wraps). Journal bytes are
	// trace-tier: a pure function of (seed, config). Capture is observe-only
	// — a journaled run keeps the TraceFingerprint of its unjournaled twin —
	// so Journal is deliberately excluded from Key and Result.Fingerprint.
	Journal int
	// Probes attaches the streaming probe analyzer (internal/probe) to the
	// run's step-trace stream and publishes its fold as Result.Probes: log-
	// bucketed virtual-time histograms, per-process grant/delivery vectors,
	// decision depth and failure-detection latency. Probes are trace-tier —
	// a pure function of (seed, config) — and observe-only (a probed run
	// keeps the TraceFingerprint of its unprobed twin), so like Journal the
	// flag is deliberately excluded from Key and Result.Fingerprint.
	// Journaled runs compute probes implicitly, so every journal carries its
	// live capture for replay -stats to recompute against.
	Probes bool
	// Recorder, when non-nil, is attached to the run's step-trace stream
	// (net.WithTraceRecorder) alongside any Journal capture. It is how
	// Replay wires its record-by-record checker into a run; programmatic
	// observers can use it directly. Never serialized, never part of the
	// config's identity.
	Recorder net.TraceRecorder `json:"-"`
}

// JournalAll selects full-stream journaling (Config.Journal).
const JournalAll = journal.KeepAll

// DefaultHistoryLimit is the suspect-history ring cap New configures: deep
// enough to characterise a run's detector activity, shallow enough that a
// million-run sweep pays O(cap) per run, not O(queries).
const DefaultHistoryLimit = 256

// Clone returns a deep copy of the configuration (the crash schedule is the
// only reference field). It is the mutation hook exploration loops start
// from: mutate the clone, the original stays intact.
func (c Config) Clone() Config {
	c.Crashes = append([]Crash(nil), c.Crashes...)
	return c
}

// Key renders every behaviour-determining field canonically — the identity
// of a configuration for deduplication (an exploration corpus, a tried-set).
// Unlike Result.Fingerprint it includes nothing about outcomes, and unlike
// the minimiser's memo key it includes the seed and the system size. Crash
// order is preserved: schedule order breaks (at, seq) ties in the event
// queue, so it is part of the identity.
func (c Config) Key() string {
	return fmt.Sprintf("n=%d seed=%d delay=[%v,%v] drop=%g det=%s crashes=%v term=%t timeout=%v",
		c.N, c.Seed, c.MinDelay, c.MaxDelay, c.DropRate, c.Detector, c.Crashes, c.RequireTermination, c.Timeout)
}

// Option configures a scenario.
type Option func(*Config)

// WithSeed seeds the delay and drop RNG streams.
func WithSeed(seed int64) Option { return func(c *Config) { c.Seed = seed } }

// WithDelays sets the per-message delivery delay range. In virtual time the
// magnitude is free: 50ms delays cost no more wall-clock than 50µs ones.
func WithDelays(min, max time.Duration) Option {
	return func(c *Config) { c.MinDelay, c.MaxDelay = min, max }
}

// WithDropRate makes every message be dropped independently with the given
// probability. Adversarial, safety-only territory: combine with
// WithSafetyOnly unless the rate is 0.
func WithDropRate(p float64) Option { return func(c *Config) { c.DropRate = p } }

// WithCrash schedules process p to crash at virtual time at.
func WithCrash(p model.ProcessID, at time.Duration) Option {
	return func(c *Config) { c.Crashes = append(c.Crashes, Crash{P: p, At: at}) }
}

// WithCrashes replaces the whole fault schedule.
func WithCrashes(crashes ...Crash) Option {
	return func(c *Config) { c.Crashes = append([]Crash(nil), crashes...) }
}

// WithDetector selects the run's detector family declaratively: class plus
// quality parameters. It replaces whatever spec the config carried.
func WithDetector(spec fd.DetectorSpec) Option {
	return func(c *Config) { c.Detector = spec }
}

// WithDetectorClass selects the detector class by registry name, keeping the
// quality parameters already configured.
func WithDetectorClass(class string) Option {
	return func(c *Config) { c.Detector.Class = class }
}

// WithSuspicionDelay makes crashed processes linger in Σ quorums, as Ω
// leader candidates and outside suspect lists for d logical ticks after
// their crash.
func WithSuspicionDelay(d model.Time) Option {
	return func(c *Config) { c.Detector.SuspicionDelay = d }
}

// WithFSDetectionDelay makes the FS signal turn red only d logical ticks
// after the first crash.
func WithFSDetectionDelay(d model.Time) Option {
	return func(c *Config) { c.Detector.DetectionDelay = d }
}

// WithPsiSwitch sets when Ψ leaves ⊥ and which regime it prefers.
func WithPsiSwitch(after model.Time, policy fd.PsiPolicy) Option {
	return func(c *Config) {
		c.Detector.PsiSwitchAfter = after
		c.Detector.PsiPolicy = policy
	}
}

// WithJournal captures the run's trace record stream into Result.Journal:
// k == JournalAll keeps every record, k > 0 ring-buffers the last k. See
// Config.Journal.
func WithJournal(k int) Option { return func(c *Config) { c.Journal = k } }

// WithProbes attaches the streaming probe analyzer to the run; see
// Config.Probes.
func WithProbes() Option { return func(c *Config) { c.Probes = true } }

// WithSafetyOnly checks only the perpetual (safety) clauses: agreement and
// validity, not termination. Use it for runs that are cut short or
// deliberately starved (drop rates, majority loss under majority guards).
func WithSafetyOnly() Option { return func(c *Config) { c.RequireTermination = false } }

// WithHistoryLimit caps the run's suspect-list sample history at the most
// recent limit samples; limit <= 0 disables recording entirely.
func WithHistoryLimit(limit int) Option { return func(c *Config) { c.HistoryLimit = limit } }

// WithTimeout bounds the run in wall-clock time.
func WithTimeout(d time.Duration) Option { return func(c *Config) { c.Timeout = d } }

// Scenario is an immutable, reusable description of one cluster + schedule.
// Run may be called any number of times (each run stands up a fresh
// network); Sweep derives grid points from it.
type Scenario struct {
	cfg Config
}

// New builds a scenario over n processes. Defaults: seed 1, delays
// [0, 200µs], reliable links, no crashes, exact oracles, termination
// required, 30s wall-clock backstop.
func New(n int, opts ...Option) *Scenario {
	if n <= 0 {
		panic(fmt.Sprintf("scenario: invalid process count %d", n))
	}
	cfg := Config{
		N:                  n,
		Seed:               1,
		MinDelay:           0,
		MaxDelay:           200 * time.Microsecond,
		RequireTermination: true,
		Timeout:            30 * time.Second,
		HistoryLimit:       DefaultHistoryLimit,
	}
	for _, o := range opts {
		o(&cfg)
	}
	return &Scenario{cfg: cfg}
}

// FromConfig wraps an explicit configuration (the form Sweep produces for
// its grid points).
func FromConfig(cfg Config) *Scenario { return &Scenario{cfg: cfg} }

// Config returns a copy of the scenario's configuration.
func (s *Scenario) Config() Config { return s.cfg.Clone() }

// Cluster is the stood-up side of a scenario that a Protocol wires itself
// onto: the network plus the detector suite built from the scenario's
// DetectorSpec over the live failure pattern. Setup implementations hand
// Detectors.Omega/Sigma to the consensus and register constructions and
// Detectors.Psi/FS to the QC/NBAC stack.
type Cluster struct {
	// Net is the run's network.
	Net *net.Network
	// Detectors is the detector suite built from Config.Detector. Fields
	// the spec's class cannot honestly provide are nil; a Protocol's Setup
	// must refuse to wire itself onto a missing detector (see
	// Cluster.Need*), which is how sweeps report that a class does not
	// solve a problem.
	Detectors *fd.Suite
	// Instance is the instance name protocols should run under.
	Instance string
	// Config is the scenario being run.
	Config Config
}

// missing builds the Setup error for a detector the spec's class does not
// provide — the formal "this class does not solve this problem" verdict of a
// cross-detector sweep.
func (cl *Cluster) missing(kind string) error {
	return fmt.Errorf("detector spec %q provides no %s", cl.Config.Detector, kind)
}

// NeedOmega returns the suite's Ω source, or an error naming the spec.
func (cl *Cluster) NeedOmega() (fd.OmegaSource, error) {
	if cl.Detectors.Omega == nil {
		return nil, cl.missing("Ω")
	}
	return cl.Detectors.Omega, nil
}

// NeedSigma returns the suite's Σ source, or an error naming the spec.
func (cl *Cluster) NeedSigma() (fd.SigmaSource, error) {
	if cl.Detectors.Sigma == nil {
		return nil, cl.missing("Σ")
	}
	return cl.Detectors.Sigma, nil
}

// NeedFS returns the suite's FS source, or an error naming the spec.
func (cl *Cluster) NeedFS() (fd.FSSource, error) {
	if cl.Detectors.FS == nil {
		return nil, cl.missing("FS")
	}
	return cl.Detectors.FS, nil
}

// NeedPsi returns the suite's Ψ source, or an error naming the spec.
func (cl *Cluster) NeedPsi() (fd.PsiSource, error) {
	if cl.Detectors.Psi == nil {
		return nil, cl.missing("Ψ")
	}
	return cl.Detectors.Psi, nil
}

// Outcome is one process's result from a run: the input it was handed, what
// its Run returned, and the logical interval it was active. A process that
// crashed (or timed out) before returning has Returned == false and Err set.
type Outcome struct {
	Process  model.ProcessID
	Input    any
	Value    any
	Err      error
	Start    model.Time
	End      model.Time
	Returned bool
}

// Result is everything one run produced, ready for assertions and
// aggregation.
type Result struct {
	// Protocol is the protocol's name.
	Protocol string
	// Config is the scenario that was run.
	Config Config
	// Verdict is the spec checker's judgement of the outcomes.
	Verdict model.Verdict
	// Outcomes holds one entry per participating process, indexed by id.
	Outcomes []Outcome
	// Pattern is the failure pattern the run actually exhibited (scheduled
	// crashes that came due after the run completed are absent).
	Pattern *model.FailurePattern
	// Metrics is the network's counter snapshot.
	Metrics map[string]int64
	// VirtualEnd is the virtual clock when the run finished; Wall is the
	// wall-clock time it took. Their ratio is the speedup virtual time buys.
	VirtualEnd time.Duration
	// Wall is the run's wall-clock duration.
	Wall time.Duration
	// HistoryDepth is how many suspect-list samples the run's history ring
	// retained (bounded by Config.HistoryLimit); HistoryDropped counts the
	// samples the cap discarded. Together they are a cheap detector-activity
	// signal — usable in novelty signatures without unbounded memory — but,
	// like tick counts, they are scheduling-dependent and therefore excluded
	// from Fingerprint. Zero for classes without a suspect view.
	HistoryDepth   int
	HistoryDropped int64
	// TraceFingerprint is the step scheduler's digest of the full schedule:
	// every delivered event, every task step grant and every clean task exit,
	// hashed in dispatch order up to the exit of the last runner. Two
	// identically-configured runs must produce byte-identical values — the
	// trace-level strengthening of Fingerprint. It is empty when the run was
	// tainted by a wall-clock escape (the Timeout backstop cut a run at a
	// point virtual time cannot pin; the Verdict is still deterministic, the
	// schedule suffix is not).
	TraceFingerprint string
	// TraceSummary counts the record mix behind TraceFingerprint (events by
	// kind, grants) — the exploration's trace-shape signature buckets these.
	// When a wall-clock escape tainted the run, the counters are zero and
	// TraceSummary.TaintReason names the escape (which task on which
	// process).
	TraceSummary net.TraceStats
	// Journal is the run's captured trace record stream (Config.Journal),
	// ready to encode to disk; nil when journaling was off or the run
	// produced no trace group. A tainted run still yields its journal —
	// with Meta.TaintReason set and no fingerprint — so the capture can be
	// inspected even though it cannot anchor a replay.
	Journal *journal.Journal
	// Probes is the streaming probe fold over the run's record stream
	// (Config.Probes, implied by Config.Journal != 0): byte-stable per
	// (seed, config), like TraceFingerprint. Nil when probes
	// were off, the run produced no trace group, or a wall-clock escape
	// tainted the trace (a tainted record stream pins nothing, so its fold
	// is not published).
	Probes *probe.Probes
}

// Run stands the scenario up, executes the protocol on it, tears everything
// down and returns the checked result. Each call uses a fresh network; a
// Scenario is safe to Run concurrently from multiple goroutines.
func (s *Scenario) Run(ctx context.Context, proto Protocol) Result {
	cfg := s.Config()
	res := Result{Protocol: proto.Name(), Config: cfg}
	start := time.Now()
	if cfg.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, cfg.Timeout)
		defer cancel()
	}

	netOpts := []net.Option{
		net.WithSeed(cfg.Seed),
		net.WithDelays(cfg.MinDelay, cfg.MaxDelay),
		net.WithDropRate(cfg.DropRate),
	}
	// Journaling, probes and replay checking all observe the step-trace
	// stream.
	var jrec *journal.Recorder
	var analyzer *probe.Analyzer
	if cfg.Journal != 0 || cfg.Recorder != nil || cfg.Probes {
		var recs []net.TraceRecorder
		if cfg.Journal != 0 {
			jrec = journal.NewRecorder(cfg.Journal)
			recs = append(recs, jrec)
		}
		if cfg.Probes || cfg.Journal != 0 {
			// A journaled run computes probes even without Config.Probes, so
			// every journal's Meta carries the live capture replay -stats
			// recomputes against.
			analyzer = probe.NewAnalyzer(cfg.N)
			recs = append(recs, analyzer)
		}
		if cfg.Recorder != nil {
			recs = append(recs, cfg.Recorder)
		}
		rec := recs[0]
		for _, r := range recs[1:] {
			rec = teeRecorder{rec, r}
		}
		netOpts = append(netOpts, net.WithTraceRecorder(rec))
	}
	nw := net.NewNetwork(cfg.N, netOpts...)
	defer nw.Close()

	var hist *model.History
	if cfg.HistoryLimit > 0 {
		hist = model.NewHistoryWithLimit(cfg.HistoryLimit)
	}

	// Freeze dispatch while the detector suite and the protocol wire
	// themselves up and the fault schedule is laid out, so every event of
	// the initial batch — including the boot messages of message-passing
	// detector classes — gets its (time, seq) slot before anything is
	// delivered.
	nw.Freeze()
	suite, err := fd.DefaultRegistry().Build(fd.Env{
		Pattern:     nw.Pattern(),
		Clock:       nw.Clock(),
		Runtime:     nw,
		SuspectHist: hist,
	}, cfg.Detector)
	if err != nil {
		nw.Thaw()
		res.Verdict = model.Fail("scenario detectors: %v", err)
		res.Wall = time.Since(start)
		return res
	}
	if suite.Stop != nil {
		// Registered after the network's Close, so detector ensembles stop
		// before their endpoints disappear under them.
		defer suite.Stop()
	}
	cl := &Cluster{
		Net:       nw,
		Detectors: suite,
		Instance:  "scn",
		Config:    cfg,
	}

	inst, err := proto.Setup(cl)
	if err != nil {
		nw.Thaw()
		res.Verdict = model.Fail("scenario setup: %v", err)
		res.Wall = time.Since(start)
		return res
	}
	if inst.Stop != nil {
		defer inst.Stop()
	}
	for _, cr := range cfg.Crashes {
		nw.ScheduleCrash(cr.P, cr.At)
	}

	outs := make([]Outcome, cfg.N)
	done := make(chan int, cfg.N)
	launched := 0
	runOne := func(runCtx context.Context, i int, r Runner, input any) {
		o := &outs[i]
		o.Start = nw.Clock().Now()
		v, err := r.Run(runCtx, input)
		o.End = nw.Clock().Now()
		o.Value, o.Err = v, err
		o.Returned = err == nil
		done <- i
	}
	type launch struct {
		i     int
		r     Runner
		input any
	}
	launches := make([]launch, 0, cfg.N)
	for i := range outs {
		outs[i] = Outcome{Process: model.ProcessID(i)}
		if i >= len(inst.Runners) || inst.Runners[i] == nil {
			continue
		}
		var input any
		if i < len(inst.Inputs) {
			input = inst.Inputs[i]
		}
		outs[i].Input = input
		launches = append(launches, launch{i: i, r: inst.Runners[i], input: input})
	}
	launched = len(launches)
	if launched > 0 {
		// Spawn the runners as trace-group tasks while dispatch is still
		// frozen: registration order — and with it every task id, the initial
		// ready order and the whole grant schedule — is fixed by this loop,
		// not by the Go scheduler. The trace ends when the last runner exits.
		nw.TraceGroup(launched)
		for _, l := range launches {
			l := l
			nw.GoGroup(nw.Endpoint(model.ProcessID(l.i)), "scn.runner", func(t *net.Task) {
				runOne(net.WithTask(ctx, t), l.i, l.r, l.input)
			})
		}
	}
	nw.Thaw()
	for i := 0; i < launched; i++ {
		<-done
	}
	if launched > 0 {
		res.TraceFingerprint, res.TraceSummary = nw.TraceResult()
		tainted := res.TraceSummary.TaintReason != ""
		if tainted && (jrec != nil || analyzer != nil) {
			// A wall-clock escape means the runners exited without the
			// token, so the dispatcher may still be delivering — and
			// recording. Quiesce it before reading any capture: Close is
			// idempotent and waits for the dispatcher goroutine. (A clean
			// finalization needs no such barrier — the last exiting task
			// holds the token, and recording stops at finalization.)
			nw.Close()
		}
		if analyzer != nil && !tainted {
			p := &probe.Probes{SchemaVersion: probe.Version, Stream: analyzer.Finish()}
			if hist != nil {
				p.Detection = probe.DetectionFrom(nw.Pattern(), p.Stream.CrashedProcs, hist.Samples())
			}
			res.Probes = p
		}
		if jrec != nil {
			res.Journal = res.buildJournal(jrec)
		}
	}

	res.Pattern = nw.Pattern().Clone()
	res.Outcomes = outs
	if inst.Check != nil {
		res.Verdict = inst.Check(res.Pattern, outs, cfg.RequireTermination)
	} else {
		res.Verdict = model.Ok()
	}
	res.VirtualEnd = nw.VirtualNow()
	res.Metrics = nw.Metrics().Snapshot()
	if hist != nil {
		res.HistoryDepth = hist.Len()
		res.HistoryDropped = hist.Dropped()
	}
	res.Wall = time.Since(start)
	return res
}

// teeRecorder fans one trace stream out to two recorders (journal capture
// plus a caller-supplied observer). Calls stay serialized — the tee runs on
// the same token-serialized path as any single recorder.
type teeRecorder struct{ a, b net.TraceRecorder }

func (t teeRecorder) Record(r net.TraceRecord) {
	t.a.Record(r)
	t.b.Record(r)
}

// buildJournal assembles the captured record stream into a self-contained
// journal: the config is embedded with its journaling knobs zeroed (a
// journal reproduces the plain run; replay attaches its own checker), and
// the trace integrity fields come from the finished run.
func (r *Result) buildJournal(rec *journal.Recorder) *journal.Journal {
	cc := r.Config.Clone()
	cc.Journal = 0
	cc.Recorder = nil
	cc.Probes = false
	cfgJSON, err := json.Marshal(cc)
	if err != nil {
		// Config is plain data; this cannot fail. Keep the journal usable
		// for inspection even if it somehow does.
		cfgJSON = nil
	}
	st := r.TraceSummary
	return rec.Journal(journal.Meta{
		Protocol:         r.Protocol,
		Config:           cfgJSON,
		TraceFingerprint: r.TraceFingerprint,
		TaintReason:      st.TaintReason,
		Events:           st.Events,
		Messages:         st.Messages,
		Timers:           st.Timers,
		Crashes:          st.Crashes,
		Grants:           st.Grants,
		Probes:           r.Probes,
	})
}

// Fingerprint renders the run's scheduling-independent content canonically:
// the configuration, the protocol, the verdict, and each process's
// (returned, value, errored) outcome in process order. Logical timestamps,
// metrics and wall times are deliberately excluded — tick counts and
// throughput depend on goroutine scheduling even for a fixed seed, while
// everything in the fingerprint is reproducible across identically-seeded
// runs of a schedule-determined protocol. The sweep determinism tests
// compare these byte-for-byte.
func (r Result) Fingerprint() string {
	var b strings.Builder
	cfg := r.Config
	fmt.Fprintf(&b, "proto=%s n=%d seed=%d delay=[%v,%v] drop=%g", r.Protocol, cfg.N, cfg.Seed, cfg.MinDelay, cfg.MaxDelay, cfg.DropRate)
	fmt.Fprintf(&b, " det=%s", cfg.Detector)
	crashes := append([]Crash(nil), cfg.Crashes...)
	sort.Slice(crashes, func(i, j int) bool {
		if crashes[i].At != crashes[j].At {
			return crashes[i].At < crashes[j].At
		}
		return crashes[i].P < crashes[j].P
	})
	fmt.Fprintf(&b, " crashes=%v", crashes)
	fmt.Fprintf(&b, "\nverdict=%v\n", r.Verdict)
	for _, o := range r.Outcomes {
		if o.Returned {
			fmt.Fprintf(&b, "%v: %v\n", o.Process, o.Value)
		} else if o.Err != nil {
			fmt.Fprintf(&b, "%v: error\n", o.Process)
		} else {
			fmt.Fprintf(&b, "%v: no-op\n", o.Process)
		}
	}
	return b.String()
}
