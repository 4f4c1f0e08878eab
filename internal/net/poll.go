package net

import (
	"context"
	"time"
)

// Poll is the one condition wait protocol code uses: a ticker leased for the
// waiting task, whose fires are the paper's "nop" steps — each advances the
// logical clock, so time-based detector output keeps moving while nothing
// else happens — plus the wakes the task receives from handlers, mailbox
// watches and crashes.
type Poll struct {
	ep     *Endpoint
	task   *Task
	ticker *Timer
}

// NewPoll leases a ticker of the given period and binds it to the task ctx
// carries. Stop releases the lease.
func (ep *Endpoint) NewPoll(ctx context.Context, period time.Duration) Poll {
	task := TaskFrom(ctx)
	ticker := ep.NewTicker(period)
	ticker.Bind(task)
	return Poll{ep: ep, task: task, ticker: ticker}
}

// Until takes steps until cond reports done or fails. Each step checks, in
// this order: the process has not crashed (a crashed process takes no
// step), ctx is live, cond. If cond is not done, a banked tick is consumed
// as a nop step — the clock ticks and the next cond call sees tick=true —
// otherwise the task parks until its next wake. Until returns cond's error,
// or the crash or ctx error unwrapped.
func (p *Poll) Until(ctx context.Context, cond func(tick bool) (bool, error)) error {
	tick := false
	for {
		if err := p.ep.ctx.Err(); err != nil {
			return err
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		if done, err := cond(tick); done || err != nil {
			return err
		}
		if tick = p.ticker.TryFire(); tick {
			p.ep.Clock().Tick()
			continue
		}
		p.task.Await(ctx)
	}
}

// Stop releases the ticker lease. A poll that is stopped while its owner
// blocks in a nested wait (a Sleep, or another protocol's Poll) keeps that
// wait from being granted a spurious step on every tick.
func (p *Poll) Stop() { p.ticker.Stop() }
