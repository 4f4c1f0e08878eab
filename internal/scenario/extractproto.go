package scenario

import (
	"context"
	"fmt"
	"time"

	"weakestfd/internal/extract"
	"weakestfd/internal/model"
	"weakestfd/internal/net"
)

// SigmaExtraction runs the Figure 1 necessity construction of Theorem 1 as a
// sweepable workload: every process runs a SigmaExtractor over a bank of
// atomic registers (Σ-based by default, majority-based with Majority),
// repeatedly writing, reading and pinging until it has completed two
// iterations, then returns its final emulated quorum. The combined Σ-output
// history of all processes is checked against the quorum-detector
// specification's perpetual clause — every pair of emulated quorums, across
// all processes and times, must intersect — plus, when the scenario requires
// termination, that every correct process reached its round target. The
// eventual-accuracy clause (quorums eventually contain only correct
// processes) is deliberately not checked: the run stops at a fixed round
// cutoff, and immediately after a crash the still-correct outputs may
// legitimately contain the crashed process for a while — evaluating an
// "eventually" at an arbitrary finite cutoff would report false violations
// on every crashy grid point.
//
// This puts the extraction construction on the same grid axis as the native
// protocols: seeds, delay distributions and crash schedules quantify over
// the schedules the paper's necessity proof ranges over.
type SigmaExtraction struct {
	// Majority builds the registers on plain majorities (the "Σ ex nihilo"
	// regime of majority-correct environments) instead of the Σ oracle.
	Majority bool
}

const (
	// sigmaExtractRounds is how many extraction iterations each process
	// completes before reporting its quorum.
	sigmaExtractRounds = 2
	// sigmaExtractInterval is the extractor's inter-round pause in virtual
	// time, matching the default delay range.
	sigmaExtractInterval = 200 * time.Microsecond
)

// Name implements Protocol.
func (s SigmaExtraction) Name() string {
	if s.Majority {
		return "extract/sigma-majority"
	}
	return "extract/sigma"
}

// Setup implements Protocol.
func (s SigmaExtraction) Setup(cl *Cluster) (*Instance, error) {
	n := cl.Net.N()
	var g *extract.SigmaExtractionGroup
	if s.Majority {
		g = extract.NewSigmaExtractionGroupFromMajorityRegisters(cl.Net, cl.Instance, sigmaExtractInterval)
	} else {
		sigma, err := cl.NeedSigma()
		if err != nil {
			return nil, err
		}
		g = extract.NewSigmaExtractionGroupFromSigmaRegisters(cl.Net, cl.Instance, sigma, sigmaExtractInterval)
	}
	inst := &Instance{
		Runners: make([]Runner, n),
		Inputs:  make([]any, n),
		Check: func(f *model.FailurePattern, outs []Outcome, requireTermination bool) model.Verdict {
			v := model.CheckSigma(f, g.CombinedHistory(), model.SafetyOnlyCheckOptions())
			if requireTermination {
				for _, o := range outs {
					if f.Correct().Contains(o.Process) && !o.Returned {
						v = v.Merge(model.Fail("sigma extraction: correct process %v never reported a quorum: %v", o.Process, o.Err))
					}
				}
			}
			return v
		},
		Stop: g.Stop,
	}
	for i := 0; i < n; i++ {
		inst.Runners[i] = &sigmaExtractRunner{
			ex: g.Extractors[i],
			ep: cl.Net.Endpoint(model.ProcessID(i)),
		}
		inst.Inputs[i] = sigmaExtractRounds
	}
	return inst, nil
}

// sigmaExtractRunner is one process's scenario step: wait (on virtual time)
// until its extractor has completed the target number of Figure 1
// iterations, then report the emulated quorum. A crashed process's extractor
// aborts, so the runner errors out instead of spinning.
type sigmaExtractRunner struct {
	ex *extract.SigmaExtractor
	ep *net.Endpoint
}

// Run implements Runner.
func (r *sigmaExtractRunner) Run(ctx context.Context, _ any) (any, error) {
	for r.ex.Rounds() < sigmaExtractRounds {
		if r.ep.Crashed() {
			return nil, fmt.Errorf("sigma extraction: process %v crashed after %d rounds", r.ep.ID(), r.ex.Rounds())
		}
		if err := r.ep.Sleep(ctx, sigmaExtractInterval); err != nil {
			return nil, fmt.Errorf("sigma extraction: %w", err)
		}
	}
	return r.ex.Sample(), nil
}
