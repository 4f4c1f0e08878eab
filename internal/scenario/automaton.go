package scenario

import (
	"context"
	"fmt"

	"weakestfd/internal/fd"
	"weakestfd/internal/model"
	"weakestfd/internal/netrun"
	"weakestfd/internal/qc"
	"weakestfd/internal/sim"
)

// Automaton runs a step-model algorithm (sim.Automaton) over the network
// through the internal/netrun bridge — the same harness surface as the
// native protocol packages, so automata sweep across schedule grids exactly
// like them. Each process's detector value per step comes from the
// scenario's oracle family: (Ω, Σ) pairs by default, Ψ values with UsePsi.
type Automaton struct {
	// Algorithm is the automaton to execute at every process.
	Algorithm sim.Automaton
	// Label names the protocol in results (default: "automaton").
	Label string
	// UsePsi feeds Ψ values to each step instead of (Ω, Σ) pairs.
	UsePsi bool
	// QC checks the outputs against the quittable-consensus spec (outputs
	// must be sim.QCOutcome); the default checks plain consensus.
	QC bool
	// Inputs overrides the per-process inputs (default: process i gets i).
	Inputs []any
}

// Name implements Protocol.
func (a Automaton) Name() string {
	if a.Label != "" {
		return "automaton/" + a.Label
	}
	return "automaton"
}

// Setup implements Protocol.
func (a Automaton) Setup(cl *Cluster) (*Instance, error) {
	if a.Algorithm == nil {
		return nil, fmt.Errorf("automaton: no algorithm")
	}
	n := cl.Net.N()
	chk := checkConsensusOutcomes
	if a.QC {
		chk = checkAutomatonQCOutcomes
	}
	inst := &Instance{
		Runners: make([]Runner, n),
		Inputs:  make([]any, n),
		Check:   chk,
	}
	var omega fd.OmegaSource
	var sigma fd.SigmaSource
	var psi fd.PsiSource
	var err error
	if a.UsePsi {
		if psi, err = cl.NeedPsi(); err != nil {
			return nil, err
		}
	} else {
		if omega, err = cl.NeedOmega(); err != nil {
			return nil, err
		}
		if sigma, err = cl.NeedSigma(); err != nil {
			return nil, err
		}
	}
	for i := 0; i < n; i++ {
		p := model.ProcessID(i)
		var det netrun.Detector
		if a.UsePsi {
			det = func() any { return psi.At(p) }
		} else {
			det = func() any {
				return model.OmegaSigmaValue{
					Leader: omega.At(p),
					Quorum: sigma.At(p),
				}
			}
		}
		inst.Runners[i] = automatonRunner{r: &netrun.Runner{
			Endpoint:  cl.Net.Endpoint(p),
			Instance:  cl.Instance,
			Automaton: a.Algorithm,
			Detector:  det,
		}}
		if i < len(a.Inputs) {
			inst.Inputs[i] = a.Inputs[i]
		} else {
			inst.Inputs[i] = i
		}
	}
	return inst, nil
}

// automatonRunner adapts netrun.Runner's wired-input form to the harness's
// per-run-input form.
type automatonRunner struct {
	r *netrun.Runner
}

// Run implements Runner.
func (a automatonRunner) Run(ctx context.Context, input any) (any, error) {
	return a.r.RunWith(ctx, input)
}

func checkAutomatonQCOutcomes(f *model.FailurePattern, outs []Outcome, requireTermination bool) model.Verdict {
	mapped := make([]Outcome, len(outs))
	for i, out := range outs {
		mapped[i] = out
		if !out.Returned {
			continue
		}
		qo, ok := out.Value.(sim.QCOutcome)
		if !ok {
			return model.Fail("automaton qc scenario: %v returned %T, want sim.QCOutcome", out.Process, out.Value)
		}
		mapped[i].Value = qc.Decision{Quit: qo.Quit, Value: qo.Value}
	}
	return checkQCOutcomes(f, mapped, requireTermination)
}
