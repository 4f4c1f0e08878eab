package extract

import (
	"context"
	"testing"
	"time"

	"weakestfd/internal/model"
	"weakestfd/internal/net"
)

// Figure 1 over majority registers at n=3 with one crash at 1ms: the correct
// processes keep completing rounds, every emulated quorum pair intersects,
// and Stop returns.
func TestSigmaExtractionFromMajorityRegistersWithCrash(t *testing.T) {
	const n, rounds = 3, 4
	nw := net.NewNetwork(n, net.WithSeed(1), net.WithDelays(50*time.Microsecond, 300*time.Microsecond))
	defer nw.Close()
	nw.Freeze()
	g := NewSigmaExtractionGroupFromMajorityRegisters(nw, "t", 200*time.Microsecond)
	nw.ScheduleCrash(2, time.Millisecond)
	done := make(chan error, 1)
	ep := nw.Endpoint(0)
	nw.Go(ep, "test.wait", func(task *net.Task) {
		ctx := net.WithTask(context.Background(), task)
		for g.Extractors[0].Rounds() < rounds || g.Extractors[1].Rounds() < rounds {
			if err := ep.Sleep(ctx, 200*time.Microsecond); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	})
	nw.Thaw()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("waiting for %d rounds: %v", rounds, err)
		}
	case <-time.After(30 * time.Second):
		t.Fatalf("correct extractors stuck at rounds %d and %d", g.Extractors[0].Rounds(), g.Extractors[1].Rounds())
	}
	if !nw.Crashed(2) {
		t.Fatalf("p2 did not crash before the correct processes finished %d rounds", rounds)
	}

	stopped := make(chan struct{})
	go func() {
		g.Stop()
		close(stopped)
	}()
	select {
	case <-stopped:
	case <-time.After(30 * time.Second):
		t.Fatal("Stop did not return")
	}
	hist := g.CombinedHistory()
	if got := len(hist.Samples()); got < 2*rounds {
		t.Fatalf("combined history holds %d Σ outputs, want at least %d", got, 2*rounds)
	}
	if v := model.CheckSigma(nw.Pattern(), hist, model.SafetyOnlyCheckOptions()); !v.OK {
		t.Fatalf("extracted Σ violates the quorum detector's safety: %v", v)
	}
}
