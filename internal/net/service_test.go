package net

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

// services starts one service of each kind at ep: a periodic on a 1ms
// ticker, a mailbox service on instance "svc" and a body parked in a
// tickless wait.
func services(ep *Endpoint) []*Service {
	return []*Service{
		ep.Periodic("test.periodic", ep.NewTicker(time.Millisecond), func(next func() (time.Duration, bool)) {
			for _, ok := next(); ok; _, ok = next() {
			}
		}),
		ep.Instance("svc").Serve("test.serve", func(Message) {}),
		ep.Spawn(context.Background(), "test.body", func(ctx context.Context) {
			wait := ep.NewWait(ctx)
			_ = wait.Until(ctx, func(bool) (bool, error) { return false, nil })
		}),
	}
}

// stopAll stops every service twice, failing the test if a Stop hangs.
func stopAll(t *testing.T, svcs []*Service) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for range 2 {
			for _, s := range svcs {
				s.Stop()
			}
		}
	}()
	waitTask(t, done)
}

func TestServiceStopIsIdempotent(t *testing.T) {
	nw := NewNetwork(2, WithSeed(1))
	defer nw.Close()
	svcs := services(nw.Endpoint(0))
	for i := 0; i < 3; i++ {
		nw.Endpoint(1).Send(0, "svc", "m", nil)
	}
	stopAll(t, svcs)
	for _, s := range svcs {
		if !s.Stopped() {
			t.Fatalf("service %q not Stopped after Stop", s.task.name)
		}
	}
}

// A crash ends every kind of service on its own — no Stop needed — and a
// later Stop only joins.
func TestServiceExitsOnCrash(t *testing.T) {
	nw := NewNetwork(2, WithSeed(1))
	defer nw.Close()
	svcs := services(nw.Endpoint(0))
	nw.ScheduleCrash(0, 2500*time.Microsecond)
	for _, s := range svcs {
		waitTask(t, s.done)
	}
	stopAll(t, svcs)
}

func TestServiceStopReturnsAfterClose(t *testing.T) {
	nw := NewNetwork(2, WithSeed(1))
	svcs := services(nw.Endpoint(0))
	nw.Close()
	stopAll(t, svcs)
}

// A service on a crashed process takes no step: the crash check precedes the
// step, so neither a banked fire nor a buffered message is served.
func TestServiceTakesNoStepAfterCrash(t *testing.T) {
	nw := NewNetwork(2, WithSeed(1), WithDelays(0, 0))
	defer nw.Close()
	ep := nw.Endpoint(0)
	ticker := ep.NewTicker(time.Millisecond)
	nw.Endpoint(1).Send(0, "svc", "m", nil)
	inTask(t, nw, nw.Endpoint(1), func(task *Task) {
		// Let the message land and the ticker bank a fire, then crash.
		if err := nw.Endpoint(1).Sleep(WithTask(context.Background(), task), 1500*time.Microsecond); err != nil {
			t.Errorf("sleep: %v", err)
		}
		nw.Crash(0)
	})
	var mu sync.Mutex
	steps := 0
	svcs := []*Service{
		ep.Periodic("test.periodic", ticker, func(next func() (time.Duration, bool)) {
			for _, ok := next(); ok; _, ok = next() {
				mu.Lock()
				steps++
				mu.Unlock()
			}
		}),
		ep.Instance("svc").Serve("test.serve", func(Message) {
			mu.Lock()
			steps++
			mu.Unlock()
		}),
	}
	for _, s := range svcs {
		waitTask(t, s.done)
	}
	if steps != 0 {
		t.Fatalf("services on a crashed process took %d steps, want 0", steps)
	}

	// Across a crash: steps at the 1ms and 2ms fires, none after the crash
	// at 2.5ms.
	nw2 := NewNetwork(1, WithSeed(1))
	defer nw2.Close()
	ep2 := nw2.Endpoint(0)
	var crashedSteps []bool
	// Frozen, so neither the fire nor the crash pops before both are set.
	nw2.Freeze()
	s := ep2.Periodic("test.periodic", ep2.NewTicker(time.Millisecond), func(next func() (time.Duration, bool)) {
		for _, ok := next(); ok; _, ok = next() {
			crashedSteps = append(crashedSteps, ep2.Crashed())
		}
	})
	nw2.ScheduleCrash(0, 2500*time.Microsecond)
	nw2.Thaw()
	waitTask(t, s.done)
	if len(crashedSteps) != 2 || crashedSteps[0] || crashedSteps[1] {
		t.Fatalf("steps across the crash (crashed at each): %v, want [false false]", crashedSteps)
	}
}

// A periodic service steps exactly once per banked fire: fires that banked
// before the service existed are each served, at the time the step is
// granted, and then one step per fire follows.
func TestServicePeriodicStepsOncePerBankedFire(t *testing.T) {
	nw := NewNetwork(1, WithSeed(1))
	defer nw.Close()
	ep := nw.Endpoint(0)
	var svc *Service
	var got []time.Duration
	inTask(t, nw, ep, func(task *Task) {
		ticker := ep.NewTicker(time.Millisecond)
		// Nobody is bound: the 1, 2 and 3ms fires bank.
		if err := ep.Sleep(WithTask(context.Background(), task), 3500*time.Microsecond); err != nil {
			t.Errorf("sleep: %v", err)
		}
		svc = ep.Periodic("test.periodic", ticker, func(next func() (time.Duration, bool)) {
			for now, ok := next(); ok; now, ok = next() {
				if got = append(got, now); len(got) == 5 {
					return
				}
			}
		})
	})
	waitTask(t, svc.done)
	svc.Stop()
	ms := time.Millisecond
	want := []time.Duration{3500 * time.Microsecond, 3500 * time.Microsecond, 3500 * time.Microsecond, 4 * ms, 5 * ms}
	if len(got) != len(want) {
		t.Fatalf("steps at %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("steps at %v, want %v", got, want)
		}
	}
}

// A tickless wait checks the crash before cond, like a ticking poll: a
// process that is already down never calls cond, and one that crashes
// mid-wait stops at the crash's wake.
func TestWaitNeverCallsCondAfterCrash(t *testing.T) {
	nw := NewNetwork(2, WithSeed(1))
	defer nw.Close()
	nw.Crash(0)
	calls := 0
	var err error
	inTask(t, nw, nw.Endpoint(0), func(task *Task) {
		ctx := WithTask(context.Background(), task)
		wait := nw.Endpoint(0).NewWait(ctx)
		err = wait.Until(ctx, func(bool) (bool, error) { calls++; return false, nil })
	})
	if !errors.Is(err, context.Canceled) || calls != 0 {
		t.Fatalf("wait on a crashed process: err=%v after %d cond calls, want context.Canceled after 0", err, calls)
	}

	// Across a crash: p1 sends p0 a message per 1ms tick; p0 crashes at
	// 2.5ms while waiting for a third.
	nw2 := NewNetwork(2, WithSeed(1), WithDelays(0, 0))
	defer nw2.Close()
	p0, p1 := nw2.Endpoint(0), nw2.Endpoint(1)
	// Frozen, so the crash cannot pop before both tasks exist.
	nw2.Freeze()
	nw2.ScheduleCrash(0, 2500*time.Microsecond)
	sender := goTask(nw2, p1, func(task *Task) {
		ticker := p1.NewTicker(time.Millisecond)
		defer ticker.Stop()
		for i := 0; i < 3 && awaitFire(task, ticker); i++ {
			p1.Send(0, "w", "m", nil)
		}
	})
	var crashed []bool
	got := 0
	waiter := goTask(nw2, p0, func(task *Task) {
		ctx := WithTask(context.Background(), task)
		in := p0.Instance("w")
		in.Watch(task)
		wait := p0.NewWait(ctx)
		err = wait.Until(ctx, func(tick bool) (bool, error) {
			if tick {
				t.Errorf("tickless wait saw a tick")
			}
			crashed = append(crashed, p0.Crashed())
			for _, ok := in.TryRecv(); ok; _, ok = in.TryRecv() {
				got++
			}
			return got == 3, nil
		})
	})
	nw2.Thaw()
	waitTask(t, waiter)
	waitTask(t, sender)
	if !errors.Is(err, context.Canceled) || got != 2 {
		t.Fatalf("wait across a crash: err=%v after %d messages, want context.Canceled after 2", err, got)
	}
	// The start, then one wake per delivery; the crash ends the wait.
	if len(crashed) != 3 {
		t.Fatalf("cond called %d times across the crash, want 3", len(crashed))
	}
	for i, c := range crashed {
		if c {
			t.Fatalf("cond call %d ran on a crashed process", i)
		}
	}
}

// A tickless wait parked past its ctx's deadline escapes and returns the
// ctx error, not the crash error.
func TestWaitReturnsCtxErrorOnCancel(t *testing.T) {
	nw := NewNetwork(1, WithSeed(1))
	defer nw.Close()
	var err error
	inTask(t, nw, nw.Endpoint(0), func(task *Task) {
		ctx, cancel := context.WithTimeout(WithTask(context.Background(), task), 10*time.Millisecond)
		defer cancel()
		wait := nw.Endpoint(0).NewWait(ctx)
		err = wait.Until(ctx, func(bool) (bool, error) { return false, nil })
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("wait under a cancelled ctx returned %v, want context.DeadlineExceeded", err)
	}
}
