// Package extract implements a "necessity" construction of the paper: a
// transformation algorithm that emulates a weakest failure detector out of
// any algorithm solving the corresponding problem.
//
// SigmaExtractor (Figure 1): given an implementation of atomic registers (one
// register per process, written by its owner), emulate the quorum detector Σ.
// This is the necessity half of Theorem 1. The scenario protocols
// extract/sigma and extract/sigma-majority run it and check its output
// against the Σ specification.
//
// The extractor runs against the concrete register implementations of
// internal/register, standing in for the paper's universally quantified
// "any algorithm A": no executable artifact can quantify over all algorithms.
//
// The other necessity construction, Figure 3's extraction of Ψ from any QC
// algorithm (the necessity half of Theorem 6), is not implemented.
package extract

import (
	"context"
	"fmt"
	"sync"
	"time"

	"weakestfd/internal/fd"
	"weakestfd/internal/model"
	"weakestfd/internal/net"
	"weakestfd/internal/register"
)

// RegContents is the value the Figure 1 transformation stores in each
// register: the write counter k and the set Ei of participant sets of the
// owner's previous writes.
type RegContents struct {
	K    int
	Sets []model.ProcessSet
}

// SigmaExtractor runs the Figure 1 transformation at one process: it
// repeatedly writes to its own register, tracks the participants of each
// write, reads every other register, and contacts one member of every
// participant set it observes. Its Quorum output satisfies the Σ
// specification whenever the underlying registers are atomic and live.
type SigmaExtractor struct {
	ep       *net.Endpoint
	regs     []*register.Register[RegContents]
	pingInst string
	pongInst string
	interval time.Duration
	hist     *model.History

	mu     sync.Mutex
	output model.ProcessSet
	rounds int

	responder *net.Service // task 2: answers pings
	loop      *net.Service // task 1: writes, reads and selects
}

// SigmaExtractorConfig configures one process's extractor.
type SigmaExtractorConfig struct {
	// Endpoint is the local process's network endpoint.
	Endpoint *net.Endpoint
	// Registers holds this process's handle on every register group;
	// Registers[j] must be the register written by process j. The extractor
	// writes only to Registers[Endpoint.ID()].
	Registers []*register.Register[RegContents]
	// Instance namespaces the extractor's own ping/pong traffic.
	Instance string
	// Interval is the pause between iterations of the main loop. Default 1ms.
	Interval time.Duration
	// History, if non-nil, receives every Σ-output update for spec checking.
	// Pass model.NewHistoryWithLimit for long-lived extractors whose history
	// is informational rather than checker input — a capped history keeps
	// only the most recent samples, so the perpetual Σ clauses would be
	// checked over a sliding window only.
	History *model.History
}

// StartSigmaExtractor starts the transformation at one process. Every process
// of the system must run one for the construction to be meaningful (each
// provides the responder of task 2 and writes its own register).
func StartSigmaExtractor(cfg SigmaExtractorConfig) *SigmaExtractor {
	interval := cfg.Interval
	if interval == 0 {
		interval = time.Millisecond
	}
	e := &SigmaExtractor{
		ep:       cfg.Endpoint,
		regs:     cfg.Registers,
		pingInst: "xsigma." + cfg.Instance + ".ping",
		pongInst: "xsigma." + cfg.Instance + ".pong",
		interval: interval,
		hist:     cfg.History,
		output:   model.AllProcesses(cfg.Endpoint.N()),
	}
	// Both tasks are services, spawned in a fixed order, so the
	// construction's traffic interleaves deterministically with the runners
	// that poll its output.
	e.responder = e.ep.Instance(e.pingInst).Serve("extract.respond", e.respond)
	e.loop = e.ep.Spawn(context.Background(), "extract.run", e.run)
	return e
}

// Sample implements fd.Sigma: the current emulated Σ output.
func (e *SigmaExtractor) Sample() model.ProcessSet {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.output.Clone()
}

// Rounds returns how many iterations of the main loop have completed.
func (e *SigmaExtractor) Rounds() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.rounds
}

// Stop terminates the extractor's background tasks.
func (e *SigmaExtractor) Stop() {
	e.loop.Stop()
	e.responder.Stop()
}

type pingMsg struct {
	Token int64
}

type pongMsg struct {
	Token int64
}

// respond implements task 2 of Figure 1: answer every ping.
func (e *SigmaExtractor) respond(msg net.Message) {
	if msg.Type == "ping" {
		e.ep.Send(msg.From, e.pongInst, "pong", pongMsg{Token: msg.Payload.(pingMsg).Token})
	}
}

// run implements task 1 of Figure 1. The register operations, the pong
// waits and the inter-round Sleep find the service's task in ctx and park on
// it.
func (e *SigmaExtractor) run(ctx context.Context) {
	self := int(e.ep.ID())
	pongs := e.ep.Instance(e.pongInst)
	pongs.Watch(net.TaskFrom(ctx))

	sets := []model.ProcessSet{model.AllProcesses(e.ep.N())} // Ei, with Pi(0) = Π
	prev := model.AllProcesses(e.ep.N())                     // Pi(k-1)
	token := int64(0)

	for k := 1; ; k++ {
		if ctx.Err() != nil || e.ep.Crashed() {
			return
		}
		// Line 8: write (k, Ei) into our own register and record the
		// participants of the write.
		participants, err := e.regs[self].WriteTracked(ctx, RegContents{K: k, Sets: cloneSets(sets)})
		if err != nil {
			return
		}
		// Line 9: Ei := Ei ∪ {Pi(k)}.
		sets = append(sets, participants)
		// Line 10: Fi := Pi(k−1).
		trusted := prev.Clone()

		// Lines 11-16: read every register and select one live member of
		// every participant set it contains.
		for j := 0; j < e.ep.N(); j++ {
			contents, err := e.regs[j].Read(ctx)
			if err != nil {
				return
			}
			for _, x := range contents.Sets {
				token++
				pt, ok := e.selectFrom(ctx, x, token, pongs)
				if !ok {
					return
				}
				trusted.Add(pt)
			}
		}

		// Line 17: publish the new Σ-output.
		e.mu.Lock()
		e.output = trusted
		e.rounds = k
		e.mu.Unlock()
		if e.hist != nil {
			e.hist.Record(e.ep.ID(), e.ep.Clock().Now(), trusted.Clone())
		}

		prev = participants

		// Inter-round pause on the network's virtual clock: free in
		// wall-clock terms, ordered against the traffic of the round.
		if err := e.ep.Sleep(ctx, e.interval); err != nil {
			return
		}
	}
}

// selectFrom sends a ping carrying token to every member of x and waits for
// the first pong for that token from a member of x (lines 14-16 of Figure 1).
// run's Watch on the pong mailbox wakes the wait.
func (e *SigmaExtractor) selectFrom(ctx context.Context, x model.ProcessSet, token int64, pongs net.Instance) (model.ProcessID, bool) {
	for _, q := range x.Slice() {
		e.ep.Send(q, e.pingInst, "ping", pingMsg{Token: token})
	}
	var from model.ProcessID
	wait := e.ep.NewWait(ctx)
	err := wait.Until(ctx, func(bool) (bool, error) {
		for {
			msg, ok := pongs.TryRecv()
			if !ok {
				return false, nil
			}
			// Anything else is a stale pong from an earlier token.
			if msg.Type == "pong" && msg.Payload.(pongMsg).Token == token && x.Contains(msg.From) {
				from = msg.From
				return true, nil
			}
		}
	})
	return from, err == nil
}

func cloneSets(sets []model.ProcessSet) []model.ProcessSet {
	out := make([]model.ProcessSet, len(sets))
	for i, s := range sets {
		out[i] = s.Clone()
	}
	return out
}

// SigmaExtractionGroup wires the full Figure 1 construction over a network: n
// register groups (one per owner) implemented by the supplied register
// builder, plus one extractor per process.
type SigmaExtractionGroup struct {
	Extractors []*SigmaExtractor
	Histories  []*model.History
	regGroups  []register.Group[RegContents]
}

// Stop stops every extractor and register replica.
func (g *SigmaExtractionGroup) Stop() {
	for _, e := range g.Extractors {
		e.Stop()
	}
	for _, rg := range g.regGroups {
		rg.Stop()
	}
}

// NewSigmaExtractionGroupFromSigmaRegisters builds the construction on top of
// the Σ-based register (the usual instantiation: the register implementation
// is the one that uses the failure detector D = Σ, and the extractor
// re-derives a Σ from it).
func NewSigmaExtractionGroupFromSigmaRegisters(nw *net.Network, instance string, sigma fd.SigmaSource, interval time.Duration) *SigmaExtractionGroup {
	groups := make([]register.Group[RegContents], nw.N())
	for owner := 0; owner < nw.N(); owner++ {
		groups[owner] = register.NewSigmaGroup[RegContents](nw, fmt.Sprintf("x%s.r%d", instance, owner), sigma)
	}
	return newSigmaExtractionGroup(nw, instance, groups, interval)
}

// NewSigmaExtractionGroupFromMajorityRegisters builds the construction on top
// of the majority-based register (valid in majority-correct environments,
// where Σ is extractable "ex nihilo").
func NewSigmaExtractionGroupFromMajorityRegisters(nw *net.Network, instance string, interval time.Duration) *SigmaExtractionGroup {
	groups := make([]register.Group[RegContents], nw.N())
	for owner := 0; owner < nw.N(); owner++ {
		groups[owner] = register.NewMajorityGroup[RegContents](nw, fmt.Sprintf("x%s.r%d", instance, owner))
	}
	return newSigmaExtractionGroup(nw, instance, groups, interval)
}

func newSigmaExtractionGroup(nw *net.Network, instance string, groups []register.Group[RegContents], interval time.Duration) *SigmaExtractionGroup {
	g := &SigmaExtractionGroup{
		Extractors: make([]*SigmaExtractor, nw.N()),
		Histories:  make([]*model.History, nw.N()),
		regGroups:  groups,
	}
	for i := 0; i < nw.N(); i++ {
		regs := make([]*register.Register[RegContents], nw.N())
		for owner := 0; owner < nw.N(); owner++ {
			regs[owner] = groups[owner][i]
		}
		hist := model.NewHistory()
		g.Histories[i] = hist
		g.Extractors[i] = StartSigmaExtractor(SigmaExtractorConfig{
			Endpoint:  nw.Endpoint(model.ProcessID(i)),
			Registers: regs,
			Instance:  instance,
			Interval:  interval,
			History:   hist,
		})
	}
	return g
}

// CombinedHistory merges the per-process Σ-output histories into one, for the
// model.CheckSigma specification checker.
func (g *SigmaExtractionGroup) CombinedHistory() *model.History {
	combined := model.NewHistory()
	for _, h := range g.Histories {
		for _, s := range h.Samples() {
			combined.Record(s.Process, s.Time, s.Value)
		}
	}
	return combined
}

var _ fd.Sigma = (*SigmaExtractor)(nil)
