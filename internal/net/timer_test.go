package net

import (
	"runtime"
	"testing"
	"time"

	"weakestfd/internal/model"
)

func TestVirtualTimerFiresWithoutWallClockWait(t *testing.T) {
	nw := NewNetwork(1)
	defer nw.Close()
	start := time.Now()
	inTask(t, nw, nw.Endpoint(0), func(task *Task) {
		tm := nw.Endpoint(0).NewTimer(time.Hour) // an hour of virtual time
		if !awaitFire(task, tm) {
			t.Errorf("virtual timer never fired")
		}
		if at := nw.VirtualNow(); at != time.Hour {
			t.Errorf("fired at virtual %v, want its deadline %v", at, time.Hour)
		}
	})
	if wall := time.Since(start); wall > time.Second {
		t.Fatalf("an hour of virtual time took %v of wall clock", wall)
	}
}

func TestVirtualTickerFiresAtIncreasingTimes(t *testing.T) {
	nw := NewNetwork(1)
	defer nw.Close()
	inTask(t, nw, nw.Endpoint(0), func(task *Task) {
		ticker := nw.Endpoint(0).NewTicker(3 * time.Millisecond)
		defer ticker.Stop()
		start := nw.VirtualNow()
		for i := 1; i <= 50; i++ {
			if !awaitFire(task, ticker) {
				t.Errorf("ticker stalled at tick %d", i)
				return
			}
			// Each tick wakes the task before the next event pops, so the
			// clock reads exactly the tick's deadline.
			if at, want := nw.VirtualNow(), start+time.Duration(i)*3*time.Millisecond; at != want {
				t.Errorf("tick %d at %v, want %v", i, at, want)
				return
			}
		}
	})
}

// Messages in flight are delivered before virtual time jumps to a later timer
// deadline: the event heap orders deliveries and fires globally.
func TestPendingMessagesBeatLaterTimers(t *testing.T) {
	nw := NewNetwork(2, WithDelays(50*time.Microsecond, 100*time.Microsecond))
	defer nw.Close()
	inTask(t, nw, nw.Endpoint(0), func(task *Task) {
		tm := nw.Endpoint(0).NewTimer(10 * time.Millisecond)
		nw.Endpoint(0).Send(1, "beat", "m", nil)
		if !awaitFire(task, tm) {
			t.Errorf("timer never fired")
		}
		// By the time a 10ms timer fires, the 100µs message must already be
		// waiting in the mailbox.
		if _, ok := nw.Endpoint(1).Instance("beat").TryRecv(); !ok {
			t.Errorf("message was leapfrogged by a later timer")
		}
	})
}

// A message's delay consumes virtual time from the moment it is sent: a
// delay larger than a pending timer deadline lands after that timer fires,
// even when the virtual clock has already advanced far. (Messages stamped
// with their raw delay instead of now+delay would deliver "in the past" and
// delay distributions could never outlast a timeout.)
func TestLargeDelayLandsAfterTimer(t *testing.T) {
	nw := NewNetwork(2, WithDelays(50*time.Millisecond, 50*time.Millisecond))
	defer nw.Close()
	inTask(t, nw, nw.Endpoint(1), func(task *Task) {
		// Advance the virtual clock well past the message delay magnitude.
		if !awaitFire(task, nw.Endpoint(1).NewTimer(100*time.Millisecond)) {
			t.Errorf("warm-up timer never fired")
		}
		sendAt := nw.VirtualNow()
		nw.Endpoint(0).Send(1, "slow", "m", nil)
		if got := recvN(task, "slow", 1); len(got) != 1 {
			t.Errorf("message never delivered")
		}
		if now := nw.VirtualNow(); now != sendAt+50*time.Millisecond {
			t.Errorf("50ms-delay message delivered at vnow=%v, sent at %v", now, sendAt)
		}
	})
}

// A crashed process's timers are stopped automatically: its ticker stops
// firing, and a survivor's timer still fires.
func TestCrashReleasesEndpointTimers(t *testing.T) {
	nw := NewNetwork(2)
	defer nw.Close()
	nw.Freeze() // no tick may pop before the crash
	dead := nw.Endpoint(0).NewTicker(time.Millisecond)
	nw.Crash(0)
	nw.Thaw()
	inTask(t, nw, nw.Endpoint(1), func(task *Task) {
		if !awaitFire(task, nw.Endpoint(1).NewTimer(5*time.Millisecond)) {
			t.Errorf("survivor's timer never fired")
		}
	})
	if !dead.Stopped() {
		t.Fatalf("crashed process's ticker still live")
	}
	if dead.TryFire() {
		t.Fatalf("crashed process's ticker fired during 5ms of virtual time")
	}
}

func TestTimerStopIsIdempotent(t *testing.T) {
	nw := NewNetwork(1)
	defer nw.Close()
	ep := nw.Endpoint(0)
	inTask(t, nw, ep, func(task *Task) {
		ticker := ep.NewTicker(time.Millisecond)
		if !awaitFire(task, ticker) {
			t.Errorf("ticker never fired")
		}
		// The 2ms tick pops while the task waits on another timer, so one
		// credit is banked and unread when the ticker is stopped.
		if !awaitFire(task, ep.NewTimer(1500*time.Microsecond)) {
			t.Errorf("timer beside the ticker never fired")
		}
		ticker.Stop()
		ticker.Stop()
		if !ticker.Stopped() {
			t.Errorf("Stopped() = false after Stop")
		}
		// Stop keeps what was already banked: exactly that one credit.
		if !ticker.TryFire() {
			t.Errorf("credit banked before Stop was lost")
		}
		if ticker.TryFire() {
			t.Errorf("stopped ticker held more than the one banked credit")
		}
		// After Stop the dispatcher must still make progress, and the ticker
		// stays silent.
		if !awaitFire(task, ep.NewTimer(10*time.Millisecond)) {
			t.Errorf("dispatcher wedged after ticker Stop")
		}
		if ticker.TryFire() {
			t.Errorf("stopped ticker fired")
		}
	})
}

// A stopped timer banks no further credit: a heavy create/stop churn stays
// silent while virtual time runs past every deadline.
func TestStoppedTimerBanksNoCredit(t *testing.T) {
	nw := NewNetwork(1, WithSeed(9))
	defer nw.Close()
	ep := nw.Endpoint(0)
	inTask(t, nw, ep, func(task *Task) {
		// Created and stopped within one granted step, so no fire can pop in
		// between.
		stopped := make([]*Timer, 200)
		for i := range stopped {
			stopped[i] = ep.NewTimer(time.Microsecond)
			stopped[i].Stop()
		}
		// After the churn a fresh timer still works.
		if !awaitFire(task, ep.NewTimer(time.Millisecond)) {
			t.Errorf("fresh timer after churn never fired")
		}
		for i, tm := range stopped {
			if tm.TryFire() {
				t.Errorf("iteration %d: stopped timer fired", i)
			}
		}
	})
}

// A one-shot that pops before Bind is banked: a later Bind + TryFire consumes
// it, and virtual time keeps advancing in the meantime — nobody reading a
// timer must not hold the clock for the rest of the network.
func TestFireBeforeBindIsBanked(t *testing.T) {
	nw := NewNetwork(1)
	defer nw.Close()
	ep := nw.Endpoint(0)
	early := ep.NewTimer(time.Millisecond) // unbound, unread
	inTask(t, nw, ep, func(task *Task) {
		if !awaitFire(task, ep.NewTimer(time.Second)) {
			t.Errorf("virtual time stuck behind an unread fire")
		}
		if now := nw.VirtualNow(); now < time.Second {
			t.Errorf("VirtualNow = %v after a 1s timer fired", now)
		}
		if !early.Stopped() {
			t.Errorf("Stopped() = false for a one-shot that has fired")
		}
		early.Bind(task)
		if !early.TryFire() {
			t.Errorf("fire that popped before Bind was lost")
		}
		if early.TryFire() {
			t.Errorf("one-shot banked more than one credit")
		}
	})
}

// Timers own no goroutine: after Close of a network that leased and stopped a
// few hundred of them, the process is back to its goroutine baseline.
func TestCloseLeavesNoTimerGoroutines(t *testing.T) {
	baseline := runtime.NumGoroutine()
	nw := NewNetwork(2)
	inTask(t, nw, nw.Endpoint(0), func(task *Task) {
		timers := make([]*Timer, 300) // all live at once
		for i := range timers {
			timers[i] = nw.Endpoint(model.ProcessID(i % 2)).NewTicker(time.Millisecond)
		}
		if !awaitFire(task, timers[0]) {
			t.Errorf("ticker never fired")
		}
		for _, tm := range timers {
			tm.Stop()
		}
	})
	nw.Close()
	// Exiting goroutines (the dispatcher, the task) leave the count a moment
	// after Close returns.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > baseline {
		t.Fatalf("goroutines: %d before NewNetwork, %d after Close", baseline, g)
	}
}
