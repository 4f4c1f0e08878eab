package net

import (
	"testing"
	"time"
)

func TestVirtualTimerFiresWithoutWallClockWait(t *testing.T) {
	nw := NewNetwork(1)
	defer nw.Close()
	start := time.Now()
	tm := nw.Endpoint(0).NewTimer(time.Hour) // an hour of virtual time
	select {
	case at := <-tm.C:
		if at < time.Hour {
			t.Fatalf("fired at virtual %v, before its deadline", at)
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("virtual timer never fired")
	}
	if wall := time.Since(start); wall > time.Second {
		t.Fatalf("an hour of virtual time took %v of wall clock", wall)
	}
	if now := nw.VirtualNow(); now < time.Hour {
		t.Fatalf("VirtualNow = %v after the timer fired", now)
	}
}

func TestVirtualTickerFiresAtIncreasingTimes(t *testing.T) {
	nw := NewNetwork(1)
	defer nw.Close()
	ticker := nw.Endpoint(0).NewTicker(3 * time.Millisecond)
	defer ticker.Stop()
	var prev time.Duration
	for i := 0; i < 50; i++ {
		select {
		case at := <-ticker.C:
			if at <= prev {
				t.Fatalf("tick %d at %v, not after previous %v", i, at, prev)
			}
			prev = at
		case <-time.After(5 * time.Second):
			t.Fatalf("ticker stalled at tick %d", i)
		}
	}
}

// Messages in flight are delivered before virtual time jumps to a later timer
// deadline: the event heap orders deliveries and fires globally.
func TestPendingMessagesBeatLaterTimers(t *testing.T) {
	nw := NewNetwork(2, WithDelays(50*time.Microsecond, 100*time.Microsecond))
	defer nw.Close()
	inbox := nw.Endpoint(1).Subscribe("beat")
	tm := nw.Endpoint(0).NewTimer(10 * time.Millisecond)
	nw.Endpoint(0).Send(1, "beat", "m", nil)
	select {
	case <-tm.C:
	case <-time.After(5 * time.Second):
		t.Fatalf("timer never fired")
	}
	// By the time a 10ms timer fires, the 100µs message must already be
	// waiting in the mailbox.
	select {
	case <-inbox:
	case <-time.After(time.Second):
		t.Fatalf("message was leapfrogged by a later timer")
	}
}

// A message's delay consumes virtual time from the moment it is sent: a
// delay larger than a pending timer deadline lands after that timer fires,
// even when the virtual clock has already advanced far. (Messages stamped
// with their raw delay instead of now+delay would deliver "in the past" and
// delay distributions could never outlast a timeout.)
func TestLargeDelayLandsAfterTimer(t *testing.T) {
	nw := NewNetwork(2, WithDelays(50*time.Millisecond, 50*time.Millisecond))
	defer nw.Close()
	inbox := nw.Endpoint(1).Subscribe("slow")

	// Advance the virtual clock well past the message delay magnitude.
	warm := nw.Endpoint(0).NewTimer(100 * time.Millisecond)
	select {
	case <-warm.C:
	case <-time.After(5 * time.Second):
		t.Fatalf("warm-up timer never fired")
	}

	sendAt := nw.VirtualNow()
	nw.Endpoint(0).Send(1, "slow", "m", nil)
	select {
	case <-inbox:
	case <-time.After(5 * time.Second):
		t.Fatalf("message never delivered")
	}
	if now := nw.VirtualNow(); now < sendAt+50*time.Millisecond {
		t.Fatalf("50ms-delay message delivered at vnow=%v, sent at %v: delay consumed no virtual time", now, sendAt)
	}
}

// A crashed process's timers are stopped automatically; an abandoned,
// never-consumed ticker must not freeze virtual time for the survivors.
func TestCrashReleasesEndpointTimers(t *testing.T) {
	nw := NewNetwork(2)
	defer nw.Close()
	nw.Endpoint(0).NewTicker(time.Millisecond) // never consumed
	nw.Crash(0)
	survivor := nw.Endpoint(1).NewTimer(5 * time.Millisecond)
	select {
	case <-survivor.C:
	case <-time.After(5 * time.Second):
		t.Fatalf("survivor's timer starved: crashed process's ticker still holds virtual time")
	}
}

func TestTimerStopIsIdempotent(t *testing.T) {
	nw := NewNetwork(1)
	defer nw.Close()
	ticker := nw.Endpoint(0).NewTicker(time.Millisecond)
	<-ticker.C
	ticker.Stop()
	ticker.Stop()
	// After Stop the dispatcher must still make progress.
	tm := nw.NewTimer(time.Millisecond)
	select {
	case <-tm.C:
	case <-time.After(5 * time.Second):
		t.Fatalf("dispatcher wedged after ticker Stop")
	}
}
