package consensus

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"weakestfd/internal/check"
	"weakestfd/internal/fd"
	"weakestfd/internal/model"
	"weakestfd/internal/net"
)

const testTimeout = 20 * time.Second

// proposer abstracts the two protocol flavours for the shared test harness.
type proposer interface {
	Propose(ctx context.Context, v Value) (Value, error)
}

// runInstance has every listed process propose its value concurrently,
// crashes the processes in crashAfter once proposals are in flight, and
// returns the recorded outcome.
func runInstance(t *testing.T, nw *net.Network, proposers map[model.ProcessID]proposer, proposals map[model.ProcessID]Value, crashAfter []model.ProcessID) check.ConsensusOutcome {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), testTimeout)
	defer cancel()

	outcome := check.ConsensusOutcome{Proposals: map[model.ProcessID]any{}}
	for p, v := range proposals {
		outcome.Proposals[p] = v
	}

	var mu sync.Mutex
	var wg sync.WaitGroup
	for p, prop := range proposers {
		wg.Add(1)
		go func(p model.ProcessID, prop proposer) {
			defer wg.Done()
			v, err := prop.Propose(ctx, proposals[p])
			end := nw.Clock().Now()
			if err != nil {
				if !nw.Crashed(p) {
					t.Errorf("propose by correct %v failed: %v", p, err)
				}
				return
			}
			mu.Lock()
			outcome.Decisions = append(outcome.Decisions, check.Decision{Process: p, Value: v, Time: end})
			mu.Unlock()
		}(p, prop)
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

func oracles(nw *net.Network) (*fd.OracleOmega, *fd.OracleSigma) {
	return &fd.OracleOmega{Pattern: nw.Pattern(), Clock: nw.Clock()},
		&fd.OracleSigma{Pattern: nw.Pattern(), Clock: nw.Clock()}
}

// Experiment E4: (Ω, Σ) ballot consensus decides with no failures.
func TestOmegaSigmaConsensusNoFailures(t *testing.T) {
	const n = 5
	nw := net.NewNetwork(n, net.WithSeed(1))
	defer nw.Close()
	omega, sigma := oracles(nw)
	group := NewOmegaSigmaGroup(nw, "nofail", omega, sigma)
	defer group.Stop()

	proposers := map[model.ProcessID]proposer{}
	proposals := map[model.ProcessID]Value{}
	for i := 0; i < n; i++ {
		proposers[model.ProcessID(i)] = group[i]
		proposals[model.ProcessID(i)] = i % 2
	}
	outcome := runInstance(t, nw, proposers, proposals, nil)
	if v := check.CheckConsensus(nw.Pattern(), outcome, true); !v.OK {
		t.Fatalf("consensus spec violated: %v", v)
	}
}

// Experiment E4: the leader (p0) crashes mid-run; the survivors must still
// decide consistently.
func TestOmegaSigmaConsensusLeaderCrash(t *testing.T) {
	const n = 5
	nw := net.NewNetwork(n, net.WithSeed(2))
	defer nw.Close()
	omega, sigma := oracles(nw)
	group := NewOmegaSigmaGroup(nw, "leadercrash", omega, sigma)
	defer group.Stop()

	proposers := map[model.ProcessID]proposer{}
	proposals := map[model.ProcessID]Value{}
	for i := 0; i < n; i++ {
		proposers[model.ProcessID(i)] = group[i]
		proposals[model.ProcessID(i)] = 100 + i
	}
	outcome := runInstance(t, nw, proposers, proposals, []model.ProcessID{0})
	if v := check.CheckConsensus(nw.Pattern(), outcome, true); !v.OK {
		t.Fatalf("consensus spec violated: %v", v)
	}
	if len(outcome.Decisions) < n-1 {
		t.Fatalf("only %d processes decided", len(outcome.Decisions))
	}
}

// Experiment E4: only a minority of processes stays correct; (Ω, Σ) consensus
// still terminates — the regime where the majority-based baseline cannot.
func TestOmegaSigmaConsensusMinorityCorrect(t *testing.T) {
	const n = 5
	nw := net.NewNetwork(n, net.WithSeed(3))
	defer nw.Close()
	omega, sigma := oracles(nw)
	group := NewOmegaSigmaGroup(nw, "minority", omega, sigma)
	defer group.Stop()

	proposers := map[model.ProcessID]proposer{}
	proposals := map[model.ProcessID]Value{}
	for i := 0; i < n; i++ {
		proposers[model.ProcessID(i)] = group[i]
		proposals[model.ProcessID(i)] = i
	}
	// Crash 3 of 5 processes, including the initial leader.
	outcome := runInstance(t, nw, proposers, proposals, []model.ProcessID{0, 2, 4})
	if v := check.CheckConsensus(nw.Pattern(), outcome, true); !v.OK {
		t.Fatalf("consensus spec violated: %v", v)
	}
}

// Experiment E5: the Ω-plus-majority baseline still decides while a majority
// is correct, but blocks once a majority has crashed.
func TestOmegaMajorityConsensusNeedsMajority(t *testing.T) {
	const n = 5
	nw := net.NewNetwork(n, net.WithSeed(4))
	defer nw.Close()
	omega, _ := oracles(nw)
	group := NewOmegaMajorityGroup(nw, "maj", omega)
	defer group.Stop()

	// With one crash (majority correct) it decides.
	proposers := map[model.ProcessID]proposer{}
	proposals := map[model.ProcessID]Value{}
	for i := 0; i < n; i++ {
		proposers[model.ProcessID(i)] = group[i]
		proposals[model.ProcessID(i)] = i
	}
	outcome := runInstance(t, nw, proposers, proposals, []model.ProcessID{4})
	if v := check.CheckConsensus(nw.Pattern(), outcome, true); !v.OK {
		t.Fatalf("consensus spec violated with majority correct: %v", v)
	}
}

func TestOmegaMajorityConsensusBlocksWithoutMajority(t *testing.T) {
	const n = 5
	nw := net.NewNetwork(n, net.WithSeed(5))
	defer nw.Close()
	omega, _ := oracles(nw)
	group := NewOmegaMajorityGroup(nw, "majblock", omega)
	defer group.Stop()

	// Crash a majority before proposing: no quorum can ever form.
	nw.Crash(2)
	nw.Crash(3)
	nw.Crash(4)

	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	_, err := group[0].Propose(ctx, 1)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("propose returned %v, want deadline exceeded", err)
	}

	// The same failure pattern with (Ω, Σ) does decide.
	omega2, sigma2 := oracles(nw)
	group2 := NewOmegaSigmaGroup(nw, "sigmaok", omega2, sigma2)
	defer group2.Stop()
	ctx2, cancel2 := context.WithTimeout(context.Background(), testTimeout)
	defer cancel2()
	var wg sync.WaitGroup
	vals := make([]Value, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, err := group2[i].Propose(ctx2, i)
			if err != nil {
				t.Errorf("sigma propose failed: %v", err)
				return
			}
			vals[i] = v
		}(i)
	}
	wg.Wait()
	if vals[0] != vals[1] {
		t.Fatalf("disagreement: %v vs %v", vals[0], vals[1])
	}
}

func TestBallotConsensusSingleProposer(t *testing.T) {
	nw := net.NewNetwork(3, net.WithSeed(6))
	defer nw.Close()
	omega, sigma := oracles(nw)
	group := NewOmegaSigmaGroup(nw, "single", omega, sigma)
	defer group.Stop()

	ctx, cancel := context.WithTimeout(context.Background(), testTimeout)
	defer cancel()
	v, err := group[0].Propose(ctx, "hello")
	if err != nil {
		t.Fatalf("propose: %v", err)
	}
	if v != "hello" {
		t.Fatalf("decided %v, want the only proposal", v)
	}
	if d, ok := group[0].Decision(); !ok || d != "hello" {
		t.Fatalf("Decision() = %v, %v", d, ok)
	}
}

// countingOmega names p0 the leader at every process and counts its samples.
type countingOmega struct{ samples atomic.Int64 }

func (o *countingOmega) At(model.ProcessID) model.ProcessID {
	o.samples.Add(1)
	return 0
}

// A crashed process takes no step: Propose on an already-crashed Ω-leader
// returns the crash without sampling Ω or broadcasting a prepare.
func TestProposeOnCrashedLeaderTakesNoStep(t *testing.T) {
	nw := net.NewNetwork(3, net.WithSeed(12))
	defer nw.Close()
	omega := &countingOmega{}
	_, sigma := oracles(nw)
	group := NewOmegaSigmaGroup(nw, "crashed", omega, sigma)
	defer group.Stop()

	nw.Crash(0)
	dropped := nw.Metrics().Get("msgs.dropped")
	ctx, cancel := context.WithTimeout(context.Background(), testTimeout)
	defer cancel()
	if _, err := group[0].Propose(ctx, 1); !errors.Is(err, context.Canceled) {
		t.Fatalf("propose on crashed leader returned %v, want context.Canceled", err)
	}
	if n := omega.samples.Load(); n != 0 {
		t.Fatalf("crashed proposer sampled Ω %d times, want 0", n)
	}
	if d := nw.Metrics().Get("msgs.dropped") - dropped; d != 0 {
		t.Fatalf("crashed proposer attempted %d sends, want 0", d)
	}
}

func TestBallotConsensusProposeAfterDecisionReturnsSameValue(t *testing.T) {
	nw := net.NewNetwork(3, net.WithSeed(7))
	defer nw.Close()
	omega, sigma := oracles(nw)
	group := NewOmegaSigmaGroup(nw, "late", omega, sigma)
	defer group.Stop()

	ctx, cancel := context.WithTimeout(context.Background(), testTimeout)
	defer cancel()
	first, err := group[0].Propose(ctx, 7)
	if err != nil {
		t.Fatalf("propose: %v", err)
	}
	// A process that proposes after the decision must get the same value.
	second, err := group[1].Propose(ctx, 8)
	if err != nil {
		t.Fatalf("late propose: %v", err)
	}
	if first != second {
		t.Fatalf("late proposer decided %v, first decided %v", second, first)
	}
}

func TestBallotConsensusStopUnblocks(t *testing.T) {
	nw := net.NewNetwork(3, net.WithSeed(8))
	defer nw.Close()
	omega, sigma := oracles(nw)
	group := NewOmegaSigmaGroup(nw, "stop", omega, sigma)

	errCh := make(chan error, 1)
	go func() {
		// p1 is not the leader and nobody else proposes, so this blocks until
		// the participant is stopped.
		_, err := group[1].Propose(context.Background(), 1)
		errCh <- err
	}()
	time.Sleep(20 * time.Millisecond)
	group.Stop()
	select {
	case err := <-errCh:
		if err == nil {
			t.Fatalf("propose succeeded with no possible decision")
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("Stop did not unblock Propose")
	}
}

// Experiment E4 (register route): consensus via Σ-registers plus Ω.
func TestRegisterConsensusDecides(t *testing.T) {
	const n = 3
	nw := net.NewNetwork(n, net.WithSeed(9))
	defer nw.Close()
	omega, sigma := oracles(nw)
	g := NewRegisterConsensusGroup(nw, "regroute", omega, sigma)
	defer g.Stop()

	proposers := map[model.ProcessID]proposer{}
	proposals := map[model.ProcessID]Value{}
	for i := 0; i < n; i++ {
		proposers[model.ProcessID(i)] = g.Participants[i]
		proposals[model.ProcessID(i)] = 10 * (i + 1)
	}
	outcome := runInstance(t, nw, proposers, proposals, nil)
	if v := check.CheckConsensus(nw.Pattern(), outcome, true); !v.OK {
		t.Fatalf("register-route consensus spec violated: %v", v)
	}
}

// Experiment E4 (register route) with a crash of the initial leader and a
// minority-correct final configuration.
func TestRegisterConsensusLeaderCrashMinorityCorrect(t *testing.T) {
	const n = 4
	nw := net.NewNetwork(n, net.WithSeed(10))
	defer nw.Close()
	omega, sigma := oracles(nw)
	g := NewRegisterConsensusGroup(nw, "regcrash", omega, sigma)
	defer g.Stop()

	proposers := map[model.ProcessID]proposer{}
	proposals := map[model.ProcessID]Value{}
	for i := 0; i < n; i++ {
		proposers[model.ProcessID(i)] = g.Participants[i]
		proposals[model.ProcessID(i)] = i
	}
	outcome := runInstance(t, nw, proposers, proposals, []model.ProcessID{0, 1})
	if v := check.CheckConsensus(nw.Pattern(), outcome, true); !v.OK {
		t.Fatalf("register-route consensus spec violated: %v", v)
	}
}

func TestNextBallotIsMonotoneAndOwned(t *testing.T) {
	nw := net.NewNetwork(3, net.WithSeed(11))
	defer nw.Close()
	omega, sigma := oracles(nw)
	group := NewOmegaSigmaGroup(nw, "ballots", omega, sigma)
	defer group.Stop()

	c := group[1]
	prev := Ballot(-1)
	for i := 0; i < 10; i++ {
		b := c.nextBallot()
		if b <= prev {
			t.Fatalf("ballot %d not greater than previous %d", b, prev)
		}
		if int64(b)%int64(nw.N()) != int64(c.ep.ID()) {
			t.Fatalf("ballot %d not owned by process %v", b, c.ep.ID())
		}
		prev = b
	}
}
