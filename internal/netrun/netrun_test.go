package netrun

import (
	"context"
	"testing"
	"time"

	"weakestfd/internal/fd"
	"weakestfd/internal/model"
	"weakestfd/internal/net"
	"weakestfd/internal/sim"
)

func omegaSigmaDetectors(nw *net.Network) []Detector {
	out := make([]Detector, nw.N())
	omega := &fd.OracleOmega{Pattern: nw.Pattern(), Clock: nw.Clock()}
	sigma := &fd.OracleSigma{Pattern: nw.Pattern(), Clock: nw.Clock()}
	for i := 0; i < nw.N(); i++ {
		p := model.ProcessID(i)
		out[i] = func() any {
			return model.OmegaSigmaValue{Leader: omega.At(p), Quorum: sigma.At(p)}
		}
	}
	return out
}

// The step-model consensus automaton, executed over the real goroutine
// runtime, must reach agreement on a proposed value.
func TestRunAllConsensusAutomaton(t *testing.T) {
	const n = 3
	nw := net.NewNetwork(n, net.WithSeed(1))
	defer nw.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	outputs, err := RunAll(ctx, nw, "cons", sim.ConsensusAutomaton{}, omegaSigmaDetectors(nw), []any{10, 20, 30})
	if err != nil {
		t.Fatalf("RunAll: %v", err)
	}
	if len(outputs) != n {
		t.Fatalf("only %d outputs", len(outputs))
	}
	first := outputs[0]
	for p, v := range outputs {
		if v != first {
			t.Fatalf("disagreement: %v decided %v, p0 decided %v", p, v, first)
		}
	}
	if first != 10 && first != 20 && first != 30 {
		t.Fatalf("decided value %v was never proposed", first)
	}
}

// A crash mid-run must not prevent the surviving processes from deciding, nor
// break agreement.
func TestRunAllConsensusAutomatonWithCrash(t *testing.T) {
	const n = 4
	nw := net.NewNetwork(n, net.WithSeed(2))
	defer nw.Close()

	go func() {
		time.Sleep(2 * time.Millisecond)
		nw.Crash(0) // initial leader
	}()

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	outputs, err := RunAll(ctx, nw, "crash", sim.ConsensusAutomaton{}, omegaSigmaDetectors(nw), []any{1, 2, 3, 4})
	if err != nil {
		t.Fatalf("RunAll: %v", err)
	}
	if len(outputs) < n-1 {
		t.Fatalf("only %d outputs", len(outputs))
	}
	var prev any
	firstSeen := false
	for _, v := range outputs {
		if firstSeen && v != prev {
			t.Fatalf("disagreement among outputs: %v", outputs)
		}
		prev, firstSeen = v, true
	}
}

// The QC automaton over the runtime, driven by the Ψ oracle in its FS regime,
// must return Quit at the correct processes.
func TestRunAllQCAutomatonQuits(t *testing.T) {
	const n = 3
	nw := net.NewNetwork(n, net.WithSeed(3))
	defer nw.Close()
	nw.Crash(2)

	psi := &fd.OraclePsi{Pattern: nw.Pattern(), Clock: nw.Clock(), SwitchAfter: 0, Policy: fd.PreferFSOnFailure}
	detectors := make([]Detector, n)
	for i := 0; i < n; i++ {
		p := model.ProcessID(i)
		detectors[i] = func() any { return psi.At(p) }
	}

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	outputs, err := RunAll(ctx, nw, "qc", sim.QCAutomaton{}, detectors, []any{0, 1, 0})
	if err != nil {
		t.Fatalf("RunAll: %v", err)
	}
	for p, v := range outputs {
		if !v.(sim.QCOutcome).Quit {
			t.Fatalf("%v decided %v, want Quit", p, v)
		}
	}
	if len(outputs) != 2 {
		t.Fatalf("expected 2 outputs, got %d", len(outputs))
	}
}

func TestRunnerStopsOnContextCancel(t *testing.T) {
	nw := net.NewNetwork(2, net.WithSeed(4))
	defer nw.Close()
	// Detector that never elects this process and never completes quorums, so
	// the automaton never decides.
	det := func() any { return model.OmegaSigmaValue{Leader: 1, Quorum: model.NewProcessSet(0, 1)} }
	r := &Runner{Endpoint: nw.Endpoint(0), Instance: "stuck", Automaton: sim.ConsensusAutomaton{}, Detector: det, Input: 1}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if _, err := r.Run(ctx); err == nil {
		t.Fatalf("Run returned without error despite cancelled context")
	}
}
