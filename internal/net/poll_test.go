package net

import (
	"context"
	"errors"
	"testing"
	"time"

	"weakestfd/internal/model"
)

// pollCall is one cond invocation as Until made it.
type pollCall struct {
	tick    bool
	now     model.Time
	crashed bool
}

// pollUntil runs Until on a 1ms poll inside a task at p0, recording every
// cond call before handing the calls so far (and the task's ctx) to step.
func pollUntil(t *testing.T, nw *Network, step func(ctx context.Context, calls []pollCall) (bool, error)) ([]pollCall, error) {
	t.Helper()
	ep := nw.Endpoint(0)
	var calls []pollCall
	var err error
	inTask(t, nw, ep, func(task *Task) {
		ctx := WithTask(context.Background(), task)
		p := ep.NewPoll(ctx, time.Millisecond)
		defer p.Stop()
		err = p.Until(ctx, func(tick bool) (bool, error) {
			calls = append(calls, pollCall{tick: tick, now: ep.Clock().Now(), crashed: ep.Crashed()})
			return step(ctx, calls)
		})
	})
	return calls, err
}

func never(context.Context, []pollCall) (bool, error) { return false, nil }

// Until checks the crash before cond: a process that is already down never
// samples, and one that crashes mid-wait stops at the crash's wake.
func TestPollUntilNeverCallsCondAfterCrash(t *testing.T) {
	nw := NewNetwork(2, WithSeed(1))
	defer nw.Close()
	nw.Crash(0)
	calls, err := pollUntil(t, nw, never)
	if !errors.Is(err, context.Canceled) || len(calls) != 0 {
		t.Fatalf("Until on a crashed process: err=%v after %d cond calls, want context.Canceled after 0", err, len(calls))
	}

	nw2 := NewNetwork(2, WithSeed(1))
	defer nw2.Close()
	// Scheduled at the wait's first step: scheduled before the task exists,
	// the crash could pop before the task's first grant.
	calls, err = pollUntil(t, nw2, func(_ context.Context, calls []pollCall) (bool, error) {
		if len(calls) == 1 {
			nw2.ScheduleCrash(0, 2500*time.Microsecond)
		}
		return false, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Until across a crash returned %v, want context.Canceled", err)
	}
	// The start, then per fire at 1ms and 2ms a wake and its banked tick;
	// the crash at 2.5ms ends the wait without another call.
	if len(calls) != 5 {
		t.Fatalf("cond called %d times across the crash, want 5: %+v", len(calls), calls)
	}
	for i, c := range calls {
		if c.crashed {
			t.Fatalf("cond call %d ran on a crashed process: %+v", i, calls)
		}
	}
}

// Each banked tick is one nop step: the clock advances exactly once for it,
// and exactly the next cond call sees tick=true.
func TestPollUntilTicksOncePerBankedFire(t *testing.T) {
	nw := NewNetwork(1, WithSeed(1))
	defer nw.Close()
	ep := nw.Endpoint(0)
	calls, err := pollUntil(t, nw, func(ctx context.Context, calls []pollCall) (bool, error) {
		if len(calls) == 1 {
			// Park past two poll periods inside cond, so both fires bank.
			return false, ep.Sleep(ctx, 2500*time.Microsecond)
		}
		return len(calls) == 4, nil
	})
	if err != nil {
		t.Fatalf("Until: %v", err)
	}
	c0 := calls[0].now
	want := []pollCall{
		{tick: false, now: c0},
		{tick: true, now: c0 + 1},  // first banked fire
		{tick: true, now: c0 + 2},  // second banked fire
		{tick: false, now: c0 + 2}, // the 3ms fire's wake, before its tick
	}
	if len(calls) != len(want) {
		t.Fatalf("cond calls = %+v, want %+v", calls, want)
	}
	for i := range want {
		if calls[i] != want[i] {
			t.Fatalf("cond call %d = %+v, want %+v (all: %+v)", i, calls[i], want[i], calls)
		}
	}
}
