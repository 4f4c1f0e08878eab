package net

import (
	"context"
	"sync/atomic"
	"time"
)

// Service is the one lifecycle of a long-lived task — a heartbeat detector,
// a register replica, a responder, an emulation loop. It runs until Stop is
// called or its process crashes (Network.Close counts as a crash of every
// process). A periodic or mailbox service steps in one fixed order: stop
// requested, process crashed, step (one banked fire, or every message
// waiting in the mailbox), park until the next wake.
type Service struct {
	ep      *Endpoint
	task    *Task
	stopped atomic.Bool
	cancel  context.CancelFunc // Spawn services: cancels the body's ctx
}

// start spawns run as s's task at ep, with a join channel the dispatcher
// closes once the task's exit is recorded, so the service adds no frame
// under the step a task parks in.
func (s *Service) start(ep *Endpoint, name string, run func(*Task)) *Service {
	s.ep = ep
	s.task = ep.net.spawn(ep, name, false, make(chan struct{}), run)
	return s
}

// halted reports whether the service must take no further step: Stop was
// requested or the process crashed, checked in that order.
func (s *Service) halted() bool {
	return s.stopped.Load() || s.ep.ctx.Err() != nil
}

// Stop signals the service, posts a wake of its task to the dispatcher and
// waits for the task's exit to be recorded. It is called from outside the
// step discipline (a task calling it would wait on itself). It is
// idempotent, and returns once the task is gone however it ended: after a
// crash or a Network.Close it only joins.
func (s *Service) Stop() {
	s.stopped.Store(true)
	if s.cancel != nil {
		s.cancel()
	}
	s.ep.net.q.post(s.task, false)
	<-s.task.done
}

// Stopped reports whether Stop has been called. Client operations that wait
// on a service's work read it to give up once the service is gone.
func (s *Service) Stopped() bool { return s.stopped.Load() }

// Periodic spawns a service at ep that steps once per fire of ticker. run
// holds the service's state and pulls fires with next: a call returns the
// virtual time of the next banked fire, parking until there is one, or false
// once the service stops or the process crashes. A fire is not a clock
// tick; whatever the step sends ticks the clock. The caller leases ticker,
// so whatever must precede the task — the first deadline, a first send — is
// fixed by the caller's step; the service binds the ticker and stops it on
// exit.
//
// run pulls rather than ranging over a sequence so that it stays one
// function holding its state across parks: its frame, parked under next,
// is part of the average stack size the Go runtime starts new goroutines
// with.
func (ep *Endpoint) Periodic(name string, ticker *Timer, run func(next func() (time.Duration, bool))) *Service {
	s := &Service{}
	return s.start(ep, name, func(task *Task) {
		defer ticker.Stop()
		ticker.Bind(task)
		run(func() (time.Duration, bool) {
			for !s.halted() {
				if ticker.TryFire() {
					return ep.VirtualNow(), true
				}
				task.Await(nil)
			}
			return 0, false
		})
	})
}

// Serve spawns a service at the instance's process that hands every message
// delivered to the instance to handle, in delivery order: each step drains
// the mailbox, and a push wakes the task. The service is the instance's one
// reader; handle runs on its task, so it may send and wake other tasks.
func (in Instance) Serve(name string, handle func(Message)) *Service {
	s := &Service{}
	return s.start(in.ep, name, func(task *Task) {
		in.Watch(task)
		for !s.halted() {
			for msg, ok := in.TryRecv(); ok; msg, ok = in.TryRecv() {
				handle(msg)
			}
			task.Await(nil)
		}
	})
}

// Spawn spawns a service at ep that runs body once. body's ctx carries the
// service's task, so every wait inside it (Poll, Sleep, protocol calls)
// parks on that task, and it is cancelled by Stop and with ctx. body stops
// itself on cancellation and on the crash its waits report.
func (ep *Endpoint) Spawn(ctx context.Context, name string, body func(ctx context.Context)) *Service {
	ctx, cancel := context.WithCancel(ctx)
	s := &Service{cancel: cancel}
	return s.start(ep, name, func(task *Task) {
		defer cancel()
		body(WithTask(ctx, task))
	})
}
