package net

import (
	"context"
	"time"
)

// Poll is the one condition wait protocol code uses. A ticking poll
// (NewPoll) leases a ticker for the waiting task, whose fires are the
// paper's "nop" steps — each advances the logical clock, so time-based
// detector output keeps moving while nothing else happens. A tickless poll
// (NewWait) leases nothing: it wakes only on the mailbox pushes, handler
// wakes and crashes the task receives, which is how a wait for messages
// parks. Both run the same Until loop.
type Poll struct {
	ep     *Endpoint
	task   *Task
	ticker *Timer // nil for a tickless poll
}

// NewPoll leases a ticker of the given period and binds it to the task ctx
// carries. Stop releases the lease.
func (ep *Endpoint) NewPoll(ctx context.Context, period time.Duration) Poll {
	task := TaskFrom(ctx)
	ticker := ep.NewTicker(period)
	ticker.Bind(task)
	return Poll{ep: ep, task: task, ticker: ticker}
}

// NewWait returns a tickless poll for the task ctx carries. It leases
// nothing, so it needs no Stop; the caller arranges its wakes, typically
// with Instance.Watch on the mailbox cond drains.
func (ep *Endpoint) NewWait(ctx context.Context) Poll {
	return Poll{ep: ep, task: TaskFrom(ctx)}
}

// Until takes steps until cond reports done or fails. Each step checks, in
// this order: the process has not crashed (a crashed process takes no
// step), ctx is live (a cancelled ctx aborts the task, see Task.Await),
// cond. If cond is not done, a banked tick is consumed as a nop step — the
// clock ticks and the next cond call sees tick=true — otherwise the task
// parks until its next wake. A tickless poll has no tick
// to consume and always parks. Until returns cond's error, or the crash or
// ctx error unwrapped.
func (p *Poll) Until(ctx context.Context, cond func(tick bool) (bool, error)) error {
	tick := false
	for {
		if err := p.ep.ctx.Err(); err != nil {
			return err
		}
		if err := ctx.Err(); err != nil {
			// A cancelled ctx is wall-clock time entering the schedule.
			p.task.abort()
			return err
		}
		if done, err := cond(tick); done || err != nil {
			return err
		}
		if tick = p.ticker != nil && p.ticker.TryFire(); tick {
			p.ep.Clock().Tick()
			continue
		}
		p.task.Await(nil)
	}
}

// Stop releases the ticker lease; on a tickless poll it does nothing. A poll
// that is stopped while its owner blocks in a nested wait (a Sleep, or
// another protocol's Poll) keeps that wait from being granted a spurious
// step on every tick.
func (p *Poll) Stop() {
	if p.ticker != nil {
		p.ticker.Stop()
	}
}
