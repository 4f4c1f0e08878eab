package register

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"weakestfd/internal/check"
	"weakestfd/internal/fd"
	"weakestfd/internal/model"
	"weakestfd/internal/net"
)

const opTimeout = 10 * time.Second

func TestTimestampOrdering(t *testing.T) {
	a := Timestamp{Seq: 1, Writer: 0}
	b := Timestamp{Seq: 1, Writer: 1}
	c := Timestamp{Seq: 2, Writer: 0}
	if !a.Less(b) || !b.Less(c) || !a.Less(c) {
		t.Fatalf("timestamp ordering wrong")
	}
	if b.Less(a) || a.Less(a) {
		t.Fatalf("timestamp ordering not strict")
	}
	if a.String() != "1.p0" {
		t.Fatalf("String = %q", a.String())
	}
}

// opRecorder collects operations with logical start/end times for the
// linearizability checker.
type opRecorder struct {
	mu    sync.Mutex
	clock *net.Clock
	ops   []check.Op
}

func (rec *opRecorder) read(ctx context.Context, r *Register[int], p model.ProcessID) error {
	start := rec.clock.Now()
	v, err := r.Read(ctx)
	end := rec.clock.Now()
	rec.mu.Lock()
	defer rec.mu.Unlock()
	rec.ops = append(rec.ops, check.Op{Process: p, Kind: check.OpRead, Value: v, Start: start, End: end, Complete: err == nil})
	return err
}

func (rec *opRecorder) write(ctx context.Context, r *Register[int], p model.ProcessID, v int) error {
	start := rec.clock.Now()
	err := r.Write(ctx, v)
	end := rec.clock.Now()
	rec.mu.Lock()
	defer rec.mu.Unlock()
	rec.ops = append(rec.ops, check.Op{Process: p, Kind: check.OpWrite, Value: v, Start: start, End: end, Complete: err == nil})
	return err
}

func (rec *opRecorder) linearizable(t *testing.T) {
	t.Helper()
	rec.mu.Lock()
	ops := append([]check.Op{}, rec.ops...)
	rec.mu.Unlock()
	if v := check.CheckLinearizable(ops, 0); !v.OK {
		t.Fatalf("history not linearizable: %v", v)
	}
}

func TestSigmaRegisterBasicReadWrite(t *testing.T) {
	nw := net.NewNetwork(3, net.WithSeed(1))
	defer nw.Close()
	sigma := &fd.OracleSigma{Pattern: nw.Pattern(), Clock: nw.Clock()}
	group := NewSigmaGroup[int](nw, "basic", sigma)
	defer group.Stop()

	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()

	if err := group[0].Write(ctx, 42); err != nil {
		t.Fatalf("write: %v", err)
	}
	for i := 0; i < 3; i++ {
		v, err := group[i].Read(ctx)
		if err != nil {
			t.Fatalf("read at %d: %v", i, err)
		}
		if v != 42 {
			t.Fatalf("read at %d = %d, want 42", i, v)
		}
	}
}

func TestSigmaRegisterInitialValue(t *testing.T) {
	nw := net.NewNetwork(3, net.WithSeed(2))
	defer nw.Close()
	sigma := &fd.OracleSigma{Pattern: nw.Pattern(), Clock: nw.Clock()}
	group := NewSigmaGroup[int](nw, "init", sigma)
	defer group.Stop()

	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()
	v, err := group[2].Read(ctx)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if v != 0 {
		t.Fatalf("initial read = %d, want 0", v)
	}
}

// Experiment E1: the Σ-based register stays linearizable and live even when
// only a minority of processes is correct.
func TestSigmaRegisterLinearizableMinorityCorrect(t *testing.T) {
	const n = 5
	nw := net.NewNetwork(n, net.WithSeed(3))
	defer nw.Close()
	sigma := &fd.OracleSigma{Pattern: nw.Pattern(), Clock: nw.Clock()}
	group := NewSigmaGroup[int](nw, "minority", sigma)
	defer group.Stop()

	rec := &opRecorder{clock: nw.Clock()}
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()

	// Warm-up traffic from all processes.
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p := model.ProcessID(i)
			_ = rec.write(ctx, group[i], p, 100+i)
			_ = rec.read(ctx, group[i], p)
		}(i)
	}
	wg.Wait()

	// Crash three of five processes: only a minority ({0,1}) stays correct.
	nw.Crash(2)
	nw.Crash(3)
	nw.Crash(4)

	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p := model.ProcessID(i)
			for k := 0; k < 5; k++ {
				if err := rec.write(ctx, group[i], p, 1000*i+k); err != nil {
					t.Errorf("write by %v after crashes: %v", p, err)
					return
				}
				if err := rec.read(ctx, group[i], p); err != nil {
					t.Errorf("read by %v after crashes: %v", p, err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	rec.linearizable(t)
}

// Experiment E1 (contention): concurrent writers and readers on all processes
// with a crash injected mid-run; the resulting history must be linearizable.
func TestSigmaRegisterLinearizableUnderConcurrencyAndCrash(t *testing.T) {
	const n = 5
	nw := net.NewNetwork(n, net.WithSeed(4))
	defer nw.Close()
	sigma := &fd.OracleSigma{Pattern: nw.Pattern(), Clock: nw.Clock()}
	group := NewSigmaGroup[int](nw, "conc", sigma)
	defer group.Stop()

	rec := &opRecorder{clock: nw.Clock()}
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()

	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p := model.ProcessID(i)
			for k := 0; k < 4; k++ {
				// Crashed processes' operations may fail; that is fine — they
				// are recorded as incomplete.
				_ = rec.write(ctx, group[i], p, 10*i+k+1)
				_ = rec.read(ctx, group[i], p)
			}
		}(i)
	}
	// Crash a process while traffic is flowing.
	time.Sleep(5 * time.Millisecond)
	nw.Crash(4)
	wg.Wait()
	rec.linearizable(t)
}

func TestMajorityRegisterLinearizableWithMajority(t *testing.T) {
	const n = 5
	nw := net.NewNetwork(n, net.WithSeed(5))
	defer nw.Close()
	group := NewMajorityGroup[int](nw, "maj")
	defer group.Stop()

	rec := &opRecorder{clock: nw.Clock()}
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()

	nw.Crash(4) // 4 of 5 correct: still a majority

	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p := model.ProcessID(i)
			for k := 0; k < 3; k++ {
				if err := rec.write(ctx, group[i], p, 10*i+k+1); err != nil {
					t.Errorf("write: %v", err)
					return
				}
				if err := rec.read(ctx, group[i], p); err != nil {
					t.Errorf("read: %v", err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	rec.linearizable(t)
}

// Experiment E2: the majority-based register blocks once a majority has
// crashed, while the Σ-based register over the same failure pattern keeps
// terminating.
func TestMajorityRegisterBlocksWithoutMajority(t *testing.T) {
	const n = 5
	nw := net.NewNetwork(n, net.WithSeed(6))
	defer nw.Close()
	majGroup := NewMajorityGroup[int](nw, "maj")
	defer majGroup.Stop()
	sigma := &fd.OracleSigma{Pattern: nw.Pattern(), Clock: nw.Clock()}
	sigGroup := NewSigmaGroup[int](nw, "sig", sigma)
	defer sigGroup.Stop()

	nw.Crash(2)
	nw.Crash(3)
	nw.Crash(4)

	// The Σ-based register still completes operations.
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()
	if err := sigGroup[0].Write(ctx, 7); err != nil {
		t.Fatalf("sigma register write blocked despite Σ: %v", err)
	}
	if v, err := sigGroup[1].Read(ctx); err != nil || v != 7 {
		t.Fatalf("sigma register read = %d, %v", v, err)
	}

	// The majority-based register blocks: the operation must time out.
	shortCtx, shortCancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer shortCancel()
	err := majGroup[0].Write(shortCtx, 7)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("majority register write returned %v, want deadline exceeded", err)
	}
}

func TestWriteTrackedContainsACorrectProcess(t *testing.T) {
	const n = 4
	nw := net.NewNetwork(n, net.WithSeed(7))
	defer nw.Close()
	sigma := &fd.OracleSigma{Pattern: nw.Pattern(), Clock: nw.Clock()}
	group := NewSigmaGroup[int](nw, "tracked", sigma)
	defer group.Stop()

	nw.Crash(3)
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()

	participants, err := group[1].WriteTracked(ctx, 5)
	if err != nil {
		t.Fatalf("WriteTracked: %v", err)
	}
	if participants.IsEmpty() {
		t.Fatalf("no participants recorded")
	}
	if !participants.Intersects(nw.Pattern().Correct()) {
		t.Fatalf("participants %v contain no correct process", participants)
	}
}

func TestRegisterGenericValueType(t *testing.T) {
	type payload struct {
		K int
		S string
	}
	nw := net.NewNetwork(3, net.WithSeed(8))
	defer nw.Close()
	sigma := &fd.OracleSigma{Pattern: nw.Pattern(), Clock: nw.Clock()}
	group := NewSigmaGroup[payload](nw, "struct", sigma)
	defer group.Stop()

	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()
	want := payload{K: 3, S: "hello"}
	if err := group[0].Write(ctx, want); err != nil {
		t.Fatalf("write: %v", err)
	}
	got, err := group[2].Read(ctx)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if got != want {
		t.Fatalf("read = %+v, want %+v", got, want)
	}
}

func TestRegisterOperationFailsAfterOwnCrash(t *testing.T) {
	nw := net.NewNetwork(3, net.WithSeed(9))
	defer nw.Close()
	sigma := &fd.OracleSigma{Pattern: nw.Pattern(), Clock: nw.Clock()}
	group := NewSigmaGroup[int](nw, "owncrash", sigma)
	defer group.Stop()

	nw.Crash(1)
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if err := group[1].Write(ctx, 1); err == nil {
		t.Fatalf("write by crashed process succeeded")
	}
}

func TestRegisterStopUnblocksOperations(t *testing.T) {
	nw := net.NewNetwork(3, net.WithSeed(10))
	defer nw.Close()
	// A guard that can never be satisfied keeps operations blocked until Stop.
	r := New[int](nw.Endpoint(0), "stuck", neverGuard{})
	errCh := make(chan error, 1)
	go func() {
		errCh <- r.Write(context.Background(), 1)
	}()
	time.Sleep(20 * time.Millisecond)
	r.Stop()
	select {
	case err := <-errCh:
		if err == nil {
			t.Fatalf("write succeeded with unsatisfiable guard")
		}
	case <-time.After(2 * time.Second):
		t.Fatalf("Stop did not unblock the pending operation")
	}
	r.Stop() // idempotent
}

type neverGuard struct{}

func (neverGuard) Satisfied(model.ProcessSet) bool { return false }
func (neverGuard) Name() string                    { return "never" }
