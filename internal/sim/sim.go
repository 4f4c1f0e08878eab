// Package sim is a deterministic, step-level simulation kernel implementing
// the formal model of Section 2 of the paper: algorithms are automata;
// a step 〈p, m, d〉 is one process receiving a single message (or the empty
// message λ), querying its failure detector and seeing value d, sending
// messages and changing state; a schedule is a sequence of steps applied to a
// configuration (process states plus the message buffer).
//
// The kernel exists for two reasons:
//
//   - The necessity construction of Figure 3 (extracting Ψ from any QC
//     algorithm) simulates runs of the given algorithm that are compatible
//     with sampled failure-detector values; that simulation needs exactly
//     this step-level machinery. The construction itself is not implemented
//     yet; this kernel is its intended substrate.
//   - It doubles as a lightweight model checker: the step-model algorithms in
//     automata.go are exercised over thousands of seeded random schedules and
//     crash patterns, checking agreement/validity over many more interleavings
//     than the goroutine runtime can reach in the same time.
//
// Unlike internal/net, nothing here is concurrent: runs are reproducible from
// a seed.
package sim

import (
	"fmt"
	"math/rand"

	"weakestfd/internal/model"
)

// State is a process state. Automata must treat states as immutable values:
// Step must return a fresh state rather than mutating its argument, because
// the extraction machinery replays schedules from shared configurations.
type State any

// Message is an undelivered protocol message in the simulated message buffer.
type Message struct {
	From    model.ProcessID
	To      model.ProcessID
	Type    string
	Payload any
}

// String implements fmt.Stringer.
func (m Message) String() string { return fmt.Sprintf("%v->%v %s", m.From, m.To, m.Type) }

// StepContext gives an automaton its identity and the system size during a
// step.
type StepContext struct {
	Self model.ProcessID
	N    int
}

// Automaton is the paper's algorithm A, factored per process. The kernel
// calls InitialState once per process and then Step for every step the
// scheduler assigns to that process.
type Automaton interface {
	// InitialState returns process p's initial state given its input (e.g. a
	// proposal); input may be nil for input-less algorithms.
	InitialState(p model.ProcessID, n int, input any) State
	// Step executes one atomic step: msg is the delivered message or nil for
	// the empty message λ, fdValue is the value the failure detector module
	// returned in this step. It returns the successor state and any messages
	// to send.
	Step(ctx StepContext, state State, msg *Message, fdValue any) (State, []Message)
	// Output returns the process's externally visible output (e.g. its
	// decision) if it has one.
	Output(state State) (any, bool)
}

// Step is the paper's 〈p, m, d〉: process p receives message m (nil = λ) and
// sees failure-detector value d. BufferIndex records which buffer entry was
// consumed (-1 for λ); it is meaningful only relative to the configuration
// the step was generated from.
type Step struct {
	Process     model.ProcessID
	Msg         *Message
	BufferIndex int
	FDValue     any
}

// Schedule is a finite sequence of steps.
type Schedule []Step

// Participants returns the set of processes that take at least one step.
func (s Schedule) Participants() model.ProcessSet {
	out := model.NewProcessSet()
	for _, st := range s {
		out.Add(st.Process)
	}
	return out
}

// Configuration is a global state: one automaton state per process plus the
// message buffer of sent-but-undelivered messages.
type Configuration struct {
	States []State
	Buffer []Message
}

// NewConfiguration builds the initial configuration of an automaton for n
// processes with the given per-process inputs (inputs may be nil).
func NewConfiguration(a Automaton, n int, inputs []any) *Configuration {
	cfg := &Configuration{States: make([]State, n)}
	for i := 0; i < n; i++ {
		var in any
		if i < len(inputs) {
			in = inputs[i]
		}
		cfg.States[i] = a.InitialState(model.ProcessID(i), n, in)
	}
	return cfg
}

// Clone returns a deep-enough copy: states are shared (automata treat them as
// immutable), the buffer slice is copied.
func (c *Configuration) Clone() *Configuration {
	states := make([]State, len(c.States))
	copy(states, c.States)
	buffer := make([]Message, len(c.Buffer))
	copy(buffer, c.Buffer)
	return &Configuration{States: states, Buffer: buffer}
}

// N returns the number of processes.
func (c *Configuration) N() int { return len(c.States) }

// PendingFor returns the indices of buffered messages addressed to p.
func (c *Configuration) PendingFor(p model.ProcessID) []int {
	var out []int
	for i, m := range c.Buffer {
		if m.To == p {
			out = append(out, i)
		}
	}
	return out
}

// Apply executes one step of automaton a on the configuration, in place.
// The step's BufferIndex selects the delivered message (-1 for λ); it panics
// if the index is stale (out of range or addressed to another process), which
// indicates a bug in the caller's bookkeeping.
func (c *Configuration) Apply(a Automaton, step Step) {
	var msg *Message
	if step.BufferIndex >= 0 {
		if step.BufferIndex >= len(c.Buffer) {
			panic(fmt.Sprintf("sim: stale buffer index %d (buffer has %d messages)", step.BufferIndex, len(c.Buffer)))
		}
		m := c.Buffer[step.BufferIndex]
		if m.To != step.Process {
			panic(fmt.Sprintf("sim: buffer index %d addressed to %v, step is by %v", step.BufferIndex, m.To, step.Process))
		}
		msg = &m
		c.Buffer = append(c.Buffer[:step.BufferIndex], c.Buffer[step.BufferIndex+1:]...)
	}
	ctx := StepContext{Self: step.Process, N: c.N()}
	newState, sent := a.Step(ctx, c.States[int(step.Process)], msg, step.FDValue)
	c.States[int(step.Process)] = newState
	c.Buffer = append(c.Buffer, sent...)
}

// Outputs returns the outputs of all processes that have one.
func (c *Configuration) Outputs(a Automaton) map[model.ProcessID]any {
	out := make(map[model.ProcessID]any)
	for i, st := range c.States {
		if v, ok := a.Output(st); ok {
			out[model.ProcessID(i)] = v
		}
	}
	return out
}

// DetectorFunc supplies the failure-detector value process p sees when it
// takes a step at simulated time t. It is the simulation-side counterpart of
// a failure-detector history H(p, t).
type DetectorFunc func(p model.ProcessID, t model.Time) any

// Clock is a settable logical clock satisfying fd.TimeSource, used to drive
// the oracle detectors from simulated time.
type Clock struct {
	t model.Time
}

// Now returns the current simulated time.
func (c *Clock) Now() model.Time { return c.t }

// Set moves the simulated time to t.
func (c *Clock) Set(t model.Time) { c.t = t }

// RunResult summarises one simulated run.
type RunResult struct {
	Config   *Configuration
	Schedule Schedule
	Samples  *model.History
	Steps    int
	// Decided maps each process to its output, for processes that produced
	// one before the run ended.
	Decided map[model.ProcessID]any
}

// Runner generates runs of an automaton under a failure pattern, a failure
// detector and a scheduling policy.
type Runner struct {
	Automaton Automaton
	N         int
	Inputs    []any
	Pattern   *model.FailurePattern
	Detector  DetectorFunc
	Clock     *Clock
	// Lambda is the probability (0..1) that a scheduled process takes a λ
	// step even though it has pending messages; λ steps are always taken when
	// there is nothing to deliver. Default 0.2.
	Lambda float64
	// RecordSamples, when set, receives every failure-detector sample taken
	// during the run.
	RecordSamples *model.History
}

// Run executes up to maxSteps steps using a seeded random scheduler and stops
// early once stop returns true (stop may be nil). Only processes that have
// not crashed (per the failure pattern at the current simulated time) take
// steps; the simulated time is the step index.
func (r *Runner) Run(seed int64, maxSteps int, stop func(*Configuration) bool) RunResult {
	rng := rand.New(rand.NewSource(seed))
	cfg := NewConfiguration(r.Automaton, r.N, r.Inputs)
	lambda := r.Lambda
	if lambda <= 0 {
		lambda = 0.2
	}
	var sched Schedule
	steps := 0
	for t := model.Time(1); steps < maxSteps; t++ {
		if stop != nil && stop(cfg) {
			break
		}
		if r.Clock != nil {
			r.Clock.Set(t)
		}
		alive := r.Pattern.AliveAt(t)
		if alive.IsEmpty() {
			break
		}
		candidates := alive.Slice()
		p := candidates[rng.Intn(len(candidates))]
		pending := cfg.PendingFor(p)
		idx := -1
		if len(pending) > 0 && rng.Float64() >= lambda {
			idx = pending[rng.Intn(len(pending))]
		}
		var fdVal any
		if r.Detector != nil {
			fdVal = r.Detector(p, t)
		}
		if r.RecordSamples != nil {
			r.RecordSamples.Record(p, t, fdVal)
		}
		step := Step{Process: p, BufferIndex: idx, FDValue: fdVal}
		if idx >= 0 {
			m := cfg.Buffer[idx]
			step.Msg = &m
		}
		cfg.Apply(r.Automaton, step)
		sched = append(sched, step)
		steps++
	}
	return RunResult{
		Config:   cfg,
		Schedule: sched,
		Samples:  r.RecordSamples,
		Steps:    steps,
		Decided:  cfg.Outputs(r.Automaton),
	}
}
