package scenario

import (
	"context"
	"fmt"
	"sync"

	"weakestfd/internal/check"
	"weakestfd/internal/consensus"
	"weakestfd/internal/fd"
	"weakestfd/internal/model"
	"weakestfd/internal/nbac"
	"weakestfd/internal/qc"
	"weakestfd/internal/register"
)

// Runner is the common run interface of protocol participants: one
// single-shot execution with a per-process input, returning that process's
// outcome. consensus.BallotConsensus, consensus.RegisterConsensus,
// qc.PsiQC, nbac.QCNBAC, nbac.NBACQC, nbac.TwoPC and register.Register all
// satisfy it.
type Runner interface {
	Run(ctx context.Context, input any) (any, error)
}

// Statically require the protocol packages to satisfy Runner.
var (
	_ Runner = (*consensus.BallotConsensus)(nil)
	_ Runner = (*consensus.RegisterConsensus)(nil)
	_ Runner = (*qc.PsiQC)(nil)
	_ Runner = (*nbac.QCNBAC)(nil)
	_ Runner = (*nbac.NBACQC)(nil)
	_ Runner = (*nbac.TwoPC)(nil)
	_ Runner = (*register.Register[int])(nil)
)

// Instance is a wired run of a protocol on a cluster: one Runner and input
// per process (nil Runner = the process takes no step), the spec checker for
// the outcomes they produce, and the teardown hook.
type Instance struct {
	Runners []Runner
	Inputs  []any
	Check   func(f *model.FailurePattern, outs []Outcome, requireTermination bool) model.Verdict
	Stop    func()
}

// Protocol is a protocol family that can be stood up on a scenario's
// cluster. Implementations must be reusable: Setup is called once per run,
// possibly concurrently from sweep workers, and must put all per-run state
// into the returned Instance.
type Protocol interface {
	// Name labels the protocol in results.
	Name() string
	// Setup wires one participant per process onto the cluster.
	Setup(cl *Cluster) (*Instance, error)
}

// ---- consensus ----

// Consensus runs single-shot consensus: the (Ω, Σ) ballot protocol by
// default, the Ω-plus-majority baseline with Majority, or the paper's
// register route (Σ-registers plus Ω) with Registers.
type Consensus struct {
	// Majority uses plain majority quorums instead of Σ (the regime of [4]:
	// liveness is lost once a majority has crashed).
	Majority bool
	// Registers takes the register-based route of Corollary 2 instead of
	// the message-passing ballot protocol.
	Registers bool
	// Proposals overrides the per-process proposals (default: process i
	// proposes i).
	Proposals []any
	// Options is forwarded to the ballot participants.
	Options []consensus.Option
}

// Name implements Protocol.
func (c Consensus) Name() string {
	switch {
	case c.Registers:
		return "consensus/registers"
	case c.Majority:
		return "consensus/majority"
	default:
		return "consensus/omega-sigma"
	}
}

// Setup implements Protocol.
func (c Consensus) Setup(cl *Cluster) (*Instance, error) {
	if c.Registers && c.Majority {
		return nil, fmt.Errorf("consensus: Registers and Majority are mutually exclusive")
	}
	n := cl.Net.N()
	omega, err := cl.NeedOmega()
	if err != nil {
		return nil, err
	}
	inst := &Instance{
		Runners: make([]Runner, n),
		Inputs:  make([]any, n),
		Check:   checkConsensusOutcomes,
	}
	for i := 0; i < n; i++ {
		if i < len(c.Proposals) {
			inst.Inputs[i] = c.Proposals[i]
		} else {
			inst.Inputs[i] = i
		}
	}
	switch {
	case c.Registers:
		sigma, err := cl.NeedSigma()
		if err != nil {
			return nil, err
		}
		g := consensus.NewRegisterConsensusGroup(cl.Net, cl.Instance, omega, sigma)
		for i, p := range g.Participants {
			inst.Runners[i] = p
		}
		inst.Stop = g.Stop
	case c.Majority:
		g := consensus.NewOmegaMajorityGroup(cl.Net, cl.Instance, omega, c.Options...)
		for i, p := range g {
			inst.Runners[i] = p
		}
		inst.Stop = g.Stop
	default:
		sigma, err := cl.NeedSigma()
		if err != nil {
			return nil, err
		}
		g := consensus.NewOmegaSigmaGroup(cl.Net, cl.Instance, omega, sigma, c.Options...)
		for i, p := range g {
			inst.Runners[i] = p
		}
		inst.Stop = g.Stop
	}
	return inst, nil
}

func checkConsensusOutcomes(f *model.FailurePattern, outs []Outcome, requireTermination bool) model.Verdict {
	o := check.ConsensusOutcome{Proposals: map[model.ProcessID]any{}}
	for _, out := range outs {
		o.Proposals[out.Process] = out.Input
		if out.Returned {
			o.Decisions = append(o.Decisions, check.Decision{Process: out.Process, Value: out.Value, Time: out.End})
		}
	}
	return check.CheckConsensus(f, o, requireTermination)
}

// ---- quittable consensus ----

// QC runs single-shot quittable consensus from Ψ (Figure 2).
type QC struct {
	// Proposals overrides the per-process proposals (default: process i
	// proposes i).
	Proposals []any
}

// Name implements Protocol.
func (QC) Name() string { return "qc/psi" }

// Setup implements Protocol.
func (q QC) Setup(cl *Cluster) (*Instance, error) {
	n := cl.Net.N()
	psi, err := cl.NeedPsi()
	if err != nil {
		return nil, err
	}
	g := qc.NewPsiGroup(cl.Net, cl.Instance, psi)
	inst := &Instance{
		Runners: make([]Runner, n),
		Inputs:  make([]any, n),
		Check:   checkQCOutcomes,
		Stop:    g.Stop,
	}
	for i := 0; i < n; i++ {
		inst.Runners[i] = g[i]
		if i < len(q.Proposals) {
			inst.Inputs[i] = q.Proposals[i]
		} else {
			inst.Inputs[i] = i
		}
	}
	return inst, nil
}

func checkQCOutcomes(f *model.FailurePattern, outs []Outcome, requireTermination bool) model.Verdict {
	o := check.QCOutcome{Proposals: map[model.ProcessID]any{}}
	for _, out := range outs {
		o.Proposals[out.Process] = out.Input
		if !out.Returned {
			continue
		}
		d, ok := out.Value.(qc.Decision)
		if !ok {
			return model.Fail("qc scenario: %v returned %T, want qc.Decision", out.Process, out.Value)
		}
		o.Decisions = append(o.Decisions, check.Decision{
			Process: out.Process,
			Value:   check.QCDecision{Quit: d.Quit, Value: d.Value},
			Time:    out.End,
		})
	}
	return check.CheckQC(f, o, requireTermination)
}

// ---- non-blocking atomic commit ----

// NBAC runs single-shot non-blocking atomic commit through the stack of
// Corollary 10: Ψ-based QC wrapped by the Figure 4 transformation with FS.
type NBAC struct {
	// Votes overrides the per-process votes (default: everyone votes Yes).
	Votes []nbac.Vote
}

// Name implements Protocol.
func (NBAC) Name() string { return "nbac/psi-fs" }

// Setup implements Protocol.
func (a NBAC) Setup(cl *Cluster) (*Instance, error) {
	n := cl.Net.N()
	psi, err := cl.NeedPsi()
	if err != nil {
		return nil, err
	}
	fs, err := cl.NeedFS()
	if err != nil {
		return nil, err
	}
	g := nbac.NewPsiFSGroup(cl.Net, cl.Instance, psi, fs)
	inst := &Instance{
		Runners: make([]Runner, n),
		Inputs:  make([]any, n),
		Check:   checkNBACOutcomes,
		Stop:    g.Stop,
	}
	for i := 0; i < n; i++ {
		inst.Runners[i] = g.Participants[i]
		vote := nbac.VoteYes
		if i < len(a.Votes) {
			vote = a.Votes[i]
		}
		inst.Inputs[i] = vote
	}
	return inst, nil
}

func checkNBACOutcomes(f *model.FailurePattern, outs []Outcome, requireTermination bool) model.Verdict {
	o := check.NBACOutcome{Votes: map[model.ProcessID]check.Vote{}}
	for _, out := range outs {
		if v, ok := out.Input.(nbac.Vote); ok {
			o.Votes[out.Process] = check.Vote(v)
		}
		if !out.Returned {
			continue
		}
		oc, ok := out.Value.(nbac.Outcome)
		if !ok {
			return model.Fail("nbac scenario: %v returned %T, want nbac.Outcome", out.Process, out.Value)
		}
		o.Decisions = append(o.Decisions, check.Decision{Process: out.Process, Value: bool(oc), Time: out.End})
	}
	return check.CheckNBAC(f, o, requireTermination)
}

// ---- blocking two-phase commit (baseline) ----

// TwoPC runs the classical blocking two-phase commit — the baseline the
// paper's NBAC stack is contrasted with. It satisfies the agreement and
// validity clauses of atomic commit but not non-blocking termination: a
// single inconvenient crash blocks every other process until the run's
// timeout, so crashy sweep grids should combine it with WithSafetyOnly.
type TwoPC struct {
	// Coordinator is the fixed coordinator process (default 0).
	Coordinator model.ProcessID
	// Votes overrides the per-process votes (default: everyone votes Yes).
	Votes []nbac.Vote
}

// Name implements Protocol.
func (TwoPC) Name() string { return "nbac/twopc" }

// Setup implements Protocol.
func (t TwoPC) Setup(cl *Cluster) (*Instance, error) {
	n := cl.Net.N()
	if int(t.Coordinator) < 0 || int(t.Coordinator) >= n {
		return nil, fmt.Errorf("twopc: coordinator %v out of range 0..%d", t.Coordinator, n-1)
	}
	g := nbac.NewTwoPCGroup(cl.Net, cl.Instance, t.Coordinator)
	inst := &Instance{
		Runners: make([]Runner, n),
		Inputs:  make([]any, n),
		Check:   checkNBACOutcomes,
	}
	for i := 0; i < n; i++ {
		inst.Runners[i] = g[i]
		vote := nbac.VoteYes
		if i < len(t.Votes) {
			vote = t.Votes[i]
		}
		inst.Inputs[i] = vote
	}
	return inst, nil
}

// ---- quittable consensus from NBAC (Figure 5) ----

// NBACQC runs quittable consensus obtained from an NBAC protocol by the
// Figure 5 transformation, stacked on the (Ψ, FS)-based NBAC of Corollary
// 10 — the QC → NBAC → QC round trip of Theorem 8, as a sweepable workload.
// Proposals must be ints (Figure 5 decides the smallest proposal received).
type NBACQC struct {
	// Proposals overrides the per-process proposals (default: process i
	// proposes i). Every entry must be an int.
	Proposals []any
}

// Name implements Protocol.
func (NBACQC) Name() string { return "qc/from-nbac" }

// Setup implements Protocol.
func (q NBACQC) Setup(cl *Cluster) (*Instance, error) {
	n := cl.Net.N()
	psi, err := cl.NeedPsi()
	if err != nil {
		return nil, err
	}
	fs, err := cl.NeedFS()
	if err != nil {
		return nil, err
	}
	g := nbac.NewQCFromNBACGroup(cl.Net, cl.Instance, psi, fs)
	inst := &Instance{
		Runners: make([]Runner, n),
		Inputs:  make([]any, n),
		Check:   checkQCOutcomes,
		Stop:    g.Stop,
	}
	for i := 0; i < n; i++ {
		inst.Runners[i] = g.Participants[i]
		if i < len(q.Proposals) {
			inst.Inputs[i] = q.Proposals[i]
		} else {
			inst.Inputs[i] = i
		}
	}
	return inst, nil
}

// ---- multi-instance consensus ----

// MultiConsensus runs Rounds independent consensus instances back to back on
// one cluster — the amortised workload: network, oracles and participants
// are stood up once, then reused, so per-decision cost approaches the
// protocol's own round-trip instead of being dominated by cluster setup.
// Process i proposes a distinct value derived from (round, i) in every
// round; each round is checked against the consensus spec independently.
type MultiConsensus struct {
	// Rounds is the number of instances (default 1).
	Rounds int
	// Majority uses the Ω-plus-majority baseline instead of (Ω, Σ).
	Majority bool
	// Options is forwarded to every round's participants.
	Options []consensus.Option
}

// Name implements Protocol.
func (m MultiConsensus) Name() string {
	if m.Majority {
		return "consensus/multi-majority"
	}
	return "consensus/multi"
}

func (m MultiConsensus) rounds() int { return max(1, m.Rounds) }

// multiProposal is the value process p proposes in round r: injective over
// (round, process) so cross-round value leakage shows up as a validity
// violation, not a silent coincidence.
func multiProposal(r, p int) int { return r*1_000_003 + p }

// Setup implements Protocol.
func (m MultiConsensus) Setup(cl *Cluster) (*Instance, error) {
	n := cl.Net.N()
	k := m.rounds()
	omega, err := cl.NeedOmega()
	if err != nil {
		return nil, err
	}
	var sigma fd.SigmaSource
	if !m.Majority {
		if sigma, err = cl.NeedSigma(); err != nil {
			return nil, err
		}
	}
	groups := make([]consensus.Group, k)
	for r := range groups {
		name := fmt.Sprintf("%s.mc%d", cl.Instance, r)
		if m.Majority {
			groups[r] = consensus.NewOmegaMajorityGroup(cl.Net, name, omega, m.Options...)
		} else {
			groups[r] = consensus.NewOmegaSigmaGroup(cl.Net, name, omega, sigma, m.Options...)
		}
	}
	inst := &Instance{
		Runners: make([]Runner, n),
		Inputs:  make([]any, n),
		Check:   m.check,
		Stop: func() {
			for _, g := range groups {
				g.Stop()
			}
		},
	}
	for i := 0; i < n; i++ {
		inst.Runners[i] = &multiConsensusRunner{groups: groups, idx: i, clock: cl.Net.Clock()}
		inst.Inputs[i] = i
	}
	return inst, nil
}

// RoundDecision is one round's decision within a multi-instance workload, as
// returned (in a slice, one entry per completed round) by every
// MultiConsensus participant.
type RoundDecision struct {
	Round int
	Value any
	Time  model.Time
}

// String renders the decision without its logical timestamp: tick counts are
// scheduling-dependent even for a fixed seed, and this rendering is what
// reaches Result.Fingerprint through Outcome.Value — the byte-stable part
// must stay byte-stable. The Time field itself remains available to the
// spec checker.
func (d RoundDecision) String() string { return fmt.Sprintf("r%d=%v", d.Round, d.Value) }

func (m MultiConsensus) check(f *model.FailurePattern, outs []Outcome, requireTermination bool) model.Verdict {
	k := m.rounds()
	o := check.MultiConsensusOutcome{
		Rounds:    k,
		Proposals: make([]map[model.ProcessID]any, k),
		Decisions: make([][]check.Decision, k),
	}
	for r := 0; r < k; r++ {
		o.Proposals[r] = map[model.ProcessID]any{}
	}
	for _, out := range outs {
		base, ok := out.Input.(int)
		if !ok {
			continue // the process took no step
		}
		for r := 0; r < k; r++ {
			o.Proposals[r][out.Process] = multiProposal(r, base)
		}
		if !out.Returned {
			continue
		}
		ds, ok := out.Value.([]RoundDecision)
		if !ok {
			return model.Fail("multiconsensus scenario: %v returned %T, want []RoundDecision", out.Process, out.Value)
		}
		for _, d := range ds {
			if d.Round < 0 || d.Round >= k {
				return model.Fail("multiconsensus scenario: %v decided in round %d of %d", out.Process, d.Round, k)
			}
			o.Decisions[d.Round] = append(o.Decisions[d.Round], check.Decision{Process: out.Process, Value: d.Value, Time: d.Time})
		}
	}
	return check.CheckMultiConsensus(f, o, requireTermination)
}

// multiConsensusRunner drives one process through every round sequentially;
// rounds are independent instances, so a process enters round r+1 as soon as
// it decides round r, without waiting for laggards.
type multiConsensusRunner struct {
	groups []consensus.Group
	idx    int
	clock  interface{ Now() model.Time }
}

// Run implements Runner.
func (m *multiConsensusRunner) Run(ctx context.Context, input any) (any, error) {
	base, ok := input.(int)
	if !ok {
		return nil, fmt.Errorf("multiconsensus: input has type %T, want int", input)
	}
	decisions := make([]RoundDecision, 0, len(m.groups))
	for r, g := range m.groups {
		v, err := g[m.idx].Run(ctx, multiProposal(r, base))
		if err != nil {
			return nil, fmt.Errorf("multiconsensus round %d: %w", r, err)
		}
		decisions = append(decisions, RoundDecision{Round: r, Value: v, Time: m.clock.Now()})
	}
	return decisions, nil
}

// ---- atomic registers ----

// Registers runs the replicated-register protocol: each process performs one
// write of its value followed by one read, and the whole operation history
// is checked for linearizability. Σ-based quorums by default (Theorem 1),
// plain majorities with Majority.
type Registers struct {
	// Majority uses the classical ABD majority guard instead of Σ.
	Majority bool
	// Values overrides the per-process written values (default: process i
	// writes i+1; zero is the register's initial value).
	Values []int
}

// Name implements Protocol.
func (r Registers) Name() string {
	if r.Majority {
		return "register/majority"
	}
	return "register/sigma"
}

// Setup implements Protocol.
func (r Registers) Setup(cl *Cluster) (*Instance, error) {
	n := cl.Net.N()
	var g register.Group[int]
	if r.Majority {
		g = register.NewMajorityGroup[int](cl.Net, cl.Instance)
	} else {
		sigma, err := cl.NeedSigma()
		if err != nil {
			return nil, err
		}
		g = register.NewSigmaGroup[int](cl.Net, cl.Instance, sigma)
	}
	rec := &opRecorder{clock: cl.Net.Clock()}
	inst := &Instance{
		Runners: make([]Runner, n),
		Inputs:  make([]any, n),
		Check: func(f *model.FailurePattern, outs []Outcome, requireTermination bool) model.Verdict {
			return check.CheckRegister(f, check.RegisterOutcome{Ops: rec.snapshot(), Initial: 0}, requireTermination)
		},
		Stop: g.Stop,
	}
	for i := 0; i < n; i++ {
		val := i + 1
		if i < len(r.Values) {
			val = r.Values[i]
		}
		inst.Runners[i] = &registerRunner{reg: g[i], rec: rec}
		inst.Inputs[i] = val
	}
	return inst, nil
}

// opRecorder collects the operation history of a register run for the
// linearizability check.
type opRecorder struct {
	clock interface{ Now() model.Time }
	mu    sync.Mutex
	ops   []check.Op
}

func (r *opRecorder) record(p model.ProcessID, kind check.OpKind, invoke func() (int, error)) (int, error) {
	start := r.clock.Now()
	v, err := invoke()
	end := r.clock.Now()
	r.mu.Lock()
	r.ops = append(r.ops, check.Op{
		Process:  p,
		Kind:     kind,
		Value:    v,
		Start:    start,
		End:      end,
		Complete: err == nil,
	})
	r.mu.Unlock()
	return v, err
}

func (r *opRecorder) snapshot() []check.Op {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]check.Op(nil), r.ops...)
}

// registerRunner is one process's scenario step on a register group: a
// recorded write of the input followed by a recorded read, so the run's full
// history feeds the atomicity checker.
type registerRunner struct {
	reg *register.Register[int]
	rec *opRecorder
}

// Run implements Runner.
func (r *registerRunner) Run(ctx context.Context, input any) (any, error) {
	val, ok := input.(int)
	if !ok {
		return nil, fmt.Errorf("register scenario: input has type %T, want int", input)
	}
	p := r.reg.Endpoint().ID()
	if _, err := r.rec.record(p, check.OpWrite, func() (int, error) {
		return val, r.reg.Write(ctx, val)
	}); err != nil {
		return nil, err
	}
	return r.rec.record(p, check.OpRead, func() (int, error) {
		return r.reg.Read(ctx)
	})
}
