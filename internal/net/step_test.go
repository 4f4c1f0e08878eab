package net

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"weakestfd/internal/model"
)

// runPingPong stands up a two-process network, runs a traced ping-pong of
// fixed length between two scheduler-visible tasks, and returns the trace
// fingerprint with its counters.
func runPingPong(t *testing.T) (string, TraceStats) {
	t.Helper()
	nw := NewNetwork(2, WithSeed(9), WithDelays(time.Millisecond, 5*time.Millisecond))
	defer nw.Close()
	nw.Freeze()

	const rounds = 5
	done := make(chan struct{}, 2)
	player := func(ep *Endpoint, peer model.ProcessID, opens bool) func(*Task) {
		return func(task *Task) {
			defer func() { done <- struct{}{} }()
			in := ep.Instance("pp")
			in.Watch(task)
			defer in.Watch(nil)
			// The opener serves rounds balls and counts the echoes; the
			// responder echoes every ball it receives. Both sides see exactly
			// rounds messages, so neither parks waiting on a reply that will
			// never come.
			if opens {
				ep.Send(peer, "pp", "ball", 0)
			}
			for got := 0; got < rounds; {
				if m, ok := in.TryRecv(); ok {
					got++
					if opens && got < rounds {
						ep.Send(peer, "pp", "ball", m.Payload.(int)+1)
					} else if !opens {
						ep.Send(peer, "pp", "echo", m.Payload.(int))
					}
					continue
				}
				task.Await(nil)
			}
		}
	}
	nw.TraceGroup(2)
	nw.GoGroup(nw.Endpoint(0), "pp0", player(nw.Endpoint(0), 1, true))
	nw.GoGroup(nw.Endpoint(1), "pp1", player(nw.Endpoint(1), 0, false))
	nw.Thaw()
	fp, st, _ := nw.TraceResult()
	for i := 0; i < 2; i++ {
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatalf("ping-pong player %d never finished", i)
		}
	}
	return fp, st
}

// TestStepTraceDeterministic: two identically-seeded runs hash to
// byte-identical trace fingerprints, and the counters agree.
func TestStepTraceDeterministic(t *testing.T) {
	fp1, st1 := runPingPong(t)
	fp2, st2 := runPingPong(t)
	if fp1 == "" {
		t.Fatal("run produced no trace fingerprint")
	}
	if fp1 != fp2 {
		t.Fatalf("trace fingerprints diverged:\n%s\n%s", fp1, fp2)
	}
	if st1 != st2 {
		t.Fatalf("trace counters diverged: %+v vs %+v", st1, st2)
	}
	if st1.Messages == 0 || st1.Grants == 0 {
		t.Fatalf("trace counters implausible: %+v", st1)
	}
}

// TestEscapeTaintsTrace: a wall-clock escape (Network.Close while the task
// is parked) has the dispatcher resume the task aborted and forfeits the
// fingerprint — the cut point is not reproducible, so the trace must not
// pretend it is.
func TestEscapeTaintsTrace(t *testing.T) {
	nw := NewNetwork(1, WithSeed(1))
	defer nw.Close()
	nw.Freeze()
	nw.TraceGroup(1)
	ep := nw.Endpoint(0)
	parked := make(chan struct{})
	nw.GoGroup(ep, "waiter", func(task *Task) {
		close(parked)
		for ep.ctx.Err() == nil {
			task.Await(nil)
		}
	})
	nw.Thaw()
	<-parked
	time.Sleep(10 * time.Millisecond) // let it park with no wake pending
	nw.Close()
	fp, st, _ := nw.TraceResult()
	if fp != "" {
		t.Fatalf("escaped run kept a fingerprint: %q", fp)
	}
	if st.TaintReason == "" {
		t.Fatal("escaped run surfaced no taint reason")
	}
	if !strings.Contains(st.TaintReason, `"waiter"`) || !strings.Contains(st.TaintReason, "process 0") {
		t.Fatalf("taint reason does not name the escaping task: %q", st.TaintReason)
	}
	st.TaintReason = ""
	if st != (TraceStats{}) {
		t.Fatalf("escaped run kept trace counters: %+v", st)
	}
}

// TestWakeCreditNotLost: a Wake issued while the task is running (between its
// condition check and the park) makes the next Await return immediately — the
// no-lost-wakeup half of the park protocol.
func TestWakeCreditNotLost(t *testing.T) {
	nw := NewNetwork(1, WithSeed(2))
	defer nw.Close()
	nw.Freeze()
	nw.TraceGroup(1)
	ran := make(chan struct{})
	nw.GoGroup(nw.Endpoint(0), "selfwake", func(task *Task) {
		task.Wake()     // credit issued while running
		task.Await(nil) // must consume the credit, not park forever
		close(ran)
	})
	nw.Thaw()
	select {
	case <-ran:
	case <-time.After(5 * time.Second):
		t.Fatal("pending wake credit was lost: Await parked forever")
	}
	if fp, _, _ := nw.TraceResult(); fp == "" {
		t.Fatal("clean self-waking run lost its trace")
	}
}

// Exited tasks leave their endpoint's wake list: a long-lived network that
// runs one task per operation does not accumulate them.
func TestExitedTasksDoNotAccumulate(t *testing.T) {
	nw := NewNetwork(1)
	defer nw.Close()
	ep := nw.Endpoint(0)
	for i := 0; i < 1000; i++ {
		if err := ep.Sleep(context.Background(), time.Microsecond); err != nil {
			t.Fatalf("sleep %d: %v", i, err)
		}
	}
	ep.mu.Lock()
	n := len(ep.tasks)
	ep.mu.Unlock()
	if n > 2 {
		t.Fatalf("endpoint holds %d tasks after 1000 finished sleeps", n)
	}
}

// A task spawned after Close has no dispatcher to resume it: its spawner
// runs it, aborted, so an operation on a closed network returns its
// process's cancellation instead of hanging.
func TestSpawnAfterCloseRunsAborted(t *testing.T) {
	nw := NewNetwork(1)
	nw.Close()
	done := make(chan error, 1)
	go func() { done <- nw.Endpoint(0).Sleep(context.Background(), time.Hour) }()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("sleep on a closed network returned %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("sleep on a closed network never returned")
	}
}

// TestOutsideCallersPost drives the three ways into the step path from
// outside it — Service.Stop, a cancelled RunInTask ctx and Network.Crash —
// from plain goroutines, all at once, while a ticking task runs. Each only
// posts to the dispatcher, which owns the task state. The service, the
// operation and one task of the crashed process park tickless, so only the
// posted wake can end them. Every task exits before Close, the cancelled
// operation taints the trace, and the crashed process's ticking task takes
// no step after the crash beyond the one that may be in flight when Crash is
// called. Low parallelism is where a goroutine outside the network and the
// dispatcher interleave least fairly, so it runs at GOMAXPROCS 1, 2 and 4.
func TestOutsideCallersPost(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		for round := range 5 {
			outsideCallersRound(t, procs, round)
		}
	}
}

func outsideCallersRound(t *testing.T, procs, round int) {
	t.Helper()
	nw := NewNetwork(3, WithSeed(int64(round)))
	defer nw.Close()
	never := func(bool) (bool, error) { return false, nil }
	parkTickless := func(ctx context.Context, ep *Endpoint) error {
		wait := ep.NewWait(ctx)
		return wait.Until(ctx, never)
	}

	// p0: a mailbox service, stopped from outside.
	svc := nw.Endpoint(0).Instance("outside").Serve("outside.serve", func(Message) {})
	// p2: the ticking task, whose every cond call is a step, and a tickless
	// one; the process is crashed from outside.
	var steps atomic.Int64
	ticking := goTask(nw, nw.Endpoint(2), func(task *Task) {
		ctx := WithTask(context.Background(), task)
		poll := task.ep.NewPoll(ctx, 100*time.Microsecond)
		defer poll.Stop()
		_ = poll.Until(ctx, func(bool) (bool, error) {
			steps.Add(1)
			return false, nil
		})
	})
	parked := goTask(nw, nw.Endpoint(2), func(task *Task) {
		_ = parkTickless(WithTask(context.Background(), task), task.ep)
	})
	deadline := time.Now().Add(10 * time.Second)
	for steps.Load() < 10 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Microsecond)
	}

	// p1: an operation run from outside, its ctx cancelled from outside.
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	var opErr error
	var atCrash int64
	wg.Add(4)
	go func() {
		defer wg.Done()
		_, opErr = RunInTask(ctx, nw.Endpoint(1), "outside.op", func(ctx context.Context) (struct{}, error) {
			return struct{}{}, parkTickless(ctx, nw.Endpoint(1))
		})
	}()
	go func() {
		defer wg.Done()
		cancel()
	}()
	go func() {
		defer wg.Done()
		svc.Stop()
	}()
	go func() {
		defer wg.Done()
		nw.Crash(2)
		atCrash = steps.Load()
	}()
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	waitTask(t, done)
	waitTask(t, ticking)
	waitTask(t, parked)

	if !errors.Is(opErr, context.Canceled) {
		t.Fatalf("GOMAXPROCS=%d round %d: cancelled operation returned %v, want context.Canceled", procs, round, opErr)
	}
	if reason := nw.stepper.taintReason.Load(); reason == nil || !strings.Contains(*reason, `"outside.op"`) {
		t.Fatalf("GOMAXPROCS=%d round %d: cancelled operation did not taint the trace (reason %v)", procs, round, reason)
	}
	if extra := steps.Load() - atCrash; extra > 1 {
		t.Fatalf("GOMAXPROCS=%d round %d: crashed process took %d steps after Crash returned", procs, round, extra)
	}
	// A task's waiters are released from inside its body, so its exit can
	// trail them by a moment; it must come without Close's drain.
	for p := range nw.N() {
		for _, task := range nw.Endpoint(model.ProcessID(p)).registeredTasks() {
			for !task.exited.Load() && time.Now().Before(deadline) {
				time.Sleep(10 * time.Microsecond)
			}
			if !task.exited.Load() {
				t.Fatalf("GOMAXPROCS=%d round %d: task %q at p%d still running before Close", procs, round, task.name, p)
			}
		}
	}
}
