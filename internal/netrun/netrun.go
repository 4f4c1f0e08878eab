// Package netrun bridges the two execution substrates: it runs a step-model
// algorithm (a sim.Automaton) on the goroutine runtime (internal/net), so the
// same algorithm object can be both simulated — as the extraction
// construction of Figure 3 requires — and genuinely executed by concurrent
// processes exchanging real messages.
package netrun

import (
	"context"
	"fmt"
	"time"

	"weakestfd/internal/model"
	"weakestfd/internal/net"
	"weakestfd/internal/sim"
)

// Detector supplies the failure-detector value for each step of the local
// process; internal/fd's bound modules can be adapted with a closure.
type Detector func() any

// Runner executes one process's side of a step-model algorithm over the
// network.
type Runner struct {
	Endpoint  *net.Endpoint
	Instance  string
	Automaton sim.Automaton
	Detector  Detector
	Input     any
	// Poll is the virtual-time pause between steps when no message is pending
	// (a λ step is taken on each poll). Default 500µs. The pause costs no
	// wall-clock time: the λ ticker rides the network's event queue, so the
	// loop parks on the scheduler and wakes the moment no earlier event
	// exists, instead of sleep-polling.
	Poll time.Duration
}

// Run executes steps until the automaton produces an output, the context is
// cancelled, or the process crashes. Every process of the system must run a
// Runner with the same Instance for messages to flow.
func (r *Runner) Run(ctx context.Context) (any, error) {
	poll := r.Poll
	if poll == 0 {
		poll = 500 * time.Microsecond
	}
	instance := "netrun." + r.Instance
	ep := r.Endpoint
	// Adopt the caller so the message/λ-step loop below runs as a scheduler
	// task.
	ctx, release := net.AdoptTask(ctx, ep, "netrun.run")
	defer release()
	task := net.TaskFrom(ctx)
	stepCtx := sim.StepContext{Self: ep.ID(), N: ep.N()}
	state := r.Automaton.InitialState(ep.ID(), ep.N(), r.Input)

	ticker := ep.NewTicker(poll)
	ticker.Bind(task)
	defer ticker.Stop()

	dispatch := func(msg *sim.Message) {
		var fdVal any
		if r.Detector != nil {
			fdVal = r.Detector()
		}
		newState, out := r.Automaton.Step(stepCtx, state, msg, fdVal)
		state = newState
		for _, m := range out {
			ep.Send(m.To, instance, m.Type, m)
		}
	}

	in := ep.Instance(instance)
	in.Watch(task)
	defer in.Watch(nil)
	for {
		if v, ok := r.Automaton.Output(state); ok {
			return v, nil
		}
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("netrun %s at %v: %w", r.Instance, ep.ID(), err)
		}
		if err := ep.Context().Err(); err != nil {
			return nil, fmt.Errorf("netrun %s at %v: %w", r.Instance, ep.ID(), err)
		}
		// Pending messages take priority over λ steps: a λ step models "no
		// message available".
		if msg, ok := in.TryRecv(); ok {
			m := msg.Payload.(sim.Message)
			dispatch(&m)
			continue
		}
		if ticker.TryFire() {
			// λ step: lets detector-driven transitions (leadership, quorum
			// re-evaluation) make progress without message traffic, and
			// advances the logical clock like any step.
			ep.Clock().Tick()
			dispatch(nil)
			continue
		}
		task.Await(ctx)
	}
}

// RunWith executes a copy of the runner with input as its per-run input — the
// scenario harness's participant shape (Run keeps the wired-input form used
// by RunAll). The copy leaves the receiver reusable across runs.
func (r *Runner) RunWith(ctx context.Context, input any) (any, error) {
	rr := *r
	rr.Input = input
	return rr.Run(ctx)
}

// RunAll runs the automaton at every process of the network concurrently and
// returns the outputs of the processes that produced one (crashed processes
// are omitted). inputs[i] is process i's input.
func RunAll(ctx context.Context, nw *net.Network, instance string, a sim.Automaton, detectors []Detector, inputs []any, poll time.Duration) (map[model.ProcessID]any, error) {
	type result struct {
		p   model.ProcessID
		out any
		err error
	}
	ch := make(chan result, nw.N())
	for i := 0; i < nw.N(); i++ {
		p := model.ProcessID(i)
		var det Detector
		if i < len(detectors) {
			det = detectors[i]
		}
		var input any
		if i < len(inputs) {
			input = inputs[i]
		}
		r := &Runner{Endpoint: nw.Endpoint(p), Instance: instance, Automaton: a, Detector: det, Input: input, Poll: poll}
		go func() {
			out, err := r.Run(ctx)
			ch <- result{p: p, out: out, err: err}
		}()
	}
	outputs := make(map[model.ProcessID]any)
	var firstErr error
	for i := 0; i < nw.N(); i++ {
		res := <-ch
		if res.err != nil {
			if !nw.Crashed(res.p) && firstErr == nil {
				firstErr = res.err
			}
			continue
		}
		outputs[res.p] = res.out
	}
	return outputs, firstErr
}
