package qc

import (
	"context"
	"sync"
	"testing"
	"time"

	"weakestfd/internal/check"
	"weakestfd/internal/fd"
	"weakestfd/internal/model"
	"weakestfd/internal/net"
)

const testTimeout = 20 * time.Second

// runQC has every process propose concurrently and returns the recorded
// outcome; processes listed in crashAfter are crashed shortly after proposals
// start.
func runQC(t *testing.T, nw *net.Network, group Group, proposals map[model.ProcessID]Value, crashAfter []model.ProcessID) check.QCOutcome {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), testTimeout)
	defer cancel()

	outcome := check.QCOutcome{Proposals: map[model.ProcessID]any{}}
	for p, v := range proposals {
		outcome.Proposals[p] = v
	}

	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := range group {
		p := model.ProcessID(i)
		wg.Add(1)
		go func(p model.ProcessID, q *PsiQC) {
			defer wg.Done()
			d, err := q.Propose(ctx, proposals[p])
			end := nw.Clock().Now()
			if err != nil {
				if !nw.Crashed(p) {
					t.Errorf("qc propose by correct %v failed: %v", p, err)
				}
				return
			}
			mu.Lock()
			outcome.Decisions = append(outcome.Decisions, check.Decision{
				Process: p,
				Value:   check.QCDecision{Quit: d.Quit, Value: d.Value},
				Time:    end,
			})
			mu.Unlock()
		}(p, group[i])
	}
	if len(crashAfter) > 0 {
		time.Sleep(3 * time.Millisecond)
		for _, p := range crashAfter {
			nw.Crash(p)
		}
	}
	wg.Wait()
	return outcome
}

// Experiment E6: with no failure Ψ must take the (Ω, Σ) branch and QC decides
// a proposed value.
func TestPsiQCDecidesValueWithoutFailure(t *testing.T) {
	const n = 4
	nw := net.NewNetwork(n, net.WithSeed(1))
	defer nw.Close()
	psi := &fd.OraclePsi{Pattern: nw.Pattern(), Clock: nw.Clock(), SwitchAfter: 5, Policy: fd.PreferFSOnFailure}
	group := NewPsiGroup(nw, "novfail", psi)
	defer group.Stop()

	proposals := map[model.ProcessID]Value{}
	for i := 0; i < n; i++ {
		proposals[model.ProcessID(i)] = i % 2
	}
	outcome := runQC(t, nw, group, proposals, nil)
	if v := check.CheckQC(nw.Pattern(), outcome, true); !v.OK {
		t.Fatalf("qc spec violated: %v", v)
	}
	for _, d := range outcome.Decisions {
		if d.Value.(check.QCDecision).Quit {
			t.Fatalf("process %v decided Quit although no failure occurred", d.Process)
		}
	}
}

// Experiment E6: a failure occurs before Ψ switches and the policy prefers
// FS, so every process returns Quit — which the specification allows exactly
// because a failure occurred.
func TestPsiQCQuitsAfterFailure(t *testing.T) {
	const n = 4
	nw := net.NewNetwork(n, net.WithSeed(2))
	defer nw.Close()
	psi := &fd.OraclePsi{Pattern: nw.Pattern(), Clock: nw.Clock(), SwitchAfter: 10, Policy: fd.PreferFSOnFailure}
	group := NewPsiGroup(nw, "quit", psi)
	defer group.Stop()

	// Crash p3 before anyone proposes: Ψ will observe the failure at switch
	// time and enter its FS regime.
	nw.Crash(3)

	proposals := map[model.ProcessID]Value{}
	for i := 0; i < n; i++ {
		proposals[model.ProcessID(i)] = i % 2
	}
	outcome := runQC(t, nw, group, proposals, nil)
	if v := check.CheckQC(nw.Pattern(), outcome, true); !v.OK {
		t.Fatalf("qc spec violated: %v", v)
	}
	if len(outcome.Decisions) != 3 {
		t.Fatalf("expected 3 decisions, got %d", len(outcome.Decisions))
	}
	for _, d := range outcome.Decisions {
		if !d.Value.(check.QCDecision).Quit {
			t.Fatalf("process %v decided %v, want Quit", d.Process, d.Value)
		}
	}
}

// A crashed process takes no step: proposing after Ψ has already switched, it
// must fail rather than sample Ψ and decide.
func TestCrashedProcessNeverDecides(t *testing.T) {
	const n = 4
	nw := net.NewNetwork(n, net.WithSeed(2))
	defer nw.Close()
	psi := &fd.OraclePsi{Pattern: nw.Pattern(), Clock: nw.Clock(), SwitchAfter: 10, Policy: fd.PreferFSOnFailure}
	group := NewPsiGroup(nw, "late", psi)
	defer group.Stop()
	nw.Crash(3)

	// The survivors decide first, so Ψ has left ⊥ before p3 ever samples it.
	survivors := map[model.ProcessID]Value{0: 0, 1: 1, 2: 0}
	if got := runQC(t, nw, group[:3], survivors, nil); len(got.Decisions) != 3 {
		t.Fatalf("expected 3 survivor decisions, got %d", len(got.Decisions))
	}
	ctx, cancel := context.WithTimeout(context.Background(), testTimeout)
	defer cancel()
	if d, err := group[3].Propose(ctx, 1); err == nil {
		t.Fatalf("crashed process decided %v", d)
	}
}

// Experiment E6: even after a failure, Ψ may keep behaving like (Ω, Σ)
// (quitting is an option, never an obligation); QC then decides a proposed
// value.
func TestPsiQCValueDecisionDespiteFailure(t *testing.T) {
	const n = 4
	nw := net.NewNetwork(n, net.WithSeed(3))
	defer nw.Close()
	psi := &fd.OraclePsi{Pattern: nw.Pattern(), Clock: nw.Clock(), SwitchAfter: 0, Policy: fd.PreferOmegaSigma}
	group := NewPsiGroup(nw, "nofs", psi)
	defer group.Stop()

	nw.Crash(3)

	proposals := map[model.ProcessID]Value{}
	for i := 0; i < n; i++ {
		proposals[model.ProcessID(i)] = 10 + i
	}
	outcome := runQC(t, nw, group, proposals, nil)
	if v := check.CheckQC(nw.Pattern(), outcome, true); !v.OK {
		t.Fatalf("qc spec violated: %v", v)
	}
	for _, d := range outcome.Decisions {
		if d.Value.(check.QCDecision).Quit {
			t.Fatalf("process %v decided Quit under PreferOmegaSigma policy", d.Process)
		}
	}
}

// Experiment E6: the Ω leader crashes while QC is running in the (Ω, Σ)
// branch; the survivors must still decide consistently.
func TestPsiQCSurvivesLeaderCrashMidRun(t *testing.T) {
	const n = 5
	nw := net.NewNetwork(n, net.WithSeed(4))
	defer nw.Close()
	psi := &fd.OraclePsi{Pattern: nw.Pattern(), Clock: nw.Clock(), SwitchAfter: 0, Policy: fd.PreferOmegaSigma}
	group := NewPsiGroup(nw, "leadercrash", psi)
	defer group.Stop()

	proposals := map[model.ProcessID]Value{}
	for i := 0; i < n; i++ {
		proposals[model.ProcessID(i)] = i
	}
	outcome := runQC(t, nw, group, proposals, []model.ProcessID{0})
	if v := check.CheckQC(nw.Pattern(), outcome, true); !v.OK {
		t.Fatalf("qc spec violated: %v", v)
	}
	if len(outcome.Decisions) < n-1 {
		t.Fatalf("only %d of %d survivors decided", len(outcome.Decisions), n-1)
	}
}

func TestPsiQCWaitsOutBottomPhase(t *testing.T) {
	nw := net.NewNetwork(3, net.WithSeed(5))
	defer nw.Close()
	// Ψ leaves ⊥ only after the logical clock reaches 40; clock ticks are
	// driven by message traffic, which the consensus sub-protocol generates
	// once processes start proposing.
	psi := &fd.OraclePsi{Pattern: nw.Pattern(), Clock: nw.Clock(), SwitchAfter: 40, Policy: fd.PreferFSOnFailure}
	group := NewPsiGroup(nw, "bottom", psi)
	defer group.Stop()

	// Generate some background traffic so the clock advances past the switch
	// point even before consensus messages start flowing.
	go func() {
		for i := 0; i < 50; i++ {
			nw.Endpoint(0).Send(1, "noise", "tick", nil)
			time.Sleep(time.Millisecond)
		}
	}()

	proposals := map[model.ProcessID]Value{0: 1, 1: 1, 2: 0}
	outcome := runQC(t, nw, group, proposals, nil)
	if v := check.CheckQC(nw.Pattern(), outcome, true); !v.OK {
		t.Fatalf("qc spec violated: %v", v)
	}
}

func TestDecisionString(t *testing.T) {
	if (Decision{Quit: true}).String() != "Q" {
		t.Fatalf("Quit string wrong")
	}
	if (Decision{Value: 3}).String() != "3" {
		t.Fatalf("value string wrong")
	}
}

func TestPsiOmegaSigmaAdapterFallback(t *testing.T) {
	pattern := model.NewFailurePattern(3)
	clock := net.NewClock()
	psi := &fd.OraclePsi{Pattern: pattern, Clock: clock, SwitchAfter: 1000, Policy: fd.PreferOmegaSigma}
	bound := fd.BindTo(model.ProcessID(1), psi, clock)
	shared := psiOmegaSigma{self: 1, n: 3, psi: bound}
	if got := (psiOmega{shared}).Sample(); got != 1 {
		t.Fatalf("fallback leader = %v, want self", got)
	}
	if got := (psiSigma{shared}).Sample(); !got.Equal(model.AllProcesses(3)) {
		t.Fatalf("fallback quorum = %v", got)
	}
}
