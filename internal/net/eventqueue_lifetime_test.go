package net

import (
	"context"
	"reflect"
	"testing"
	"time"
	"unsafe"
)

// The heap orders small pointer-free keys: that is what keeps a sift level to
// one 24-byte copy the collector never scans.
func TestHeapKeyIsSmallAndPointerFree(t *testing.T) {
	if size := unsafe.Sizeof(heapKey{}); size > 24 {
		t.Errorf("sizeof(heapKey) = %d, want <= 24", size)
	}
	typ := reflect.TypeOf(heapKey{})
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		switch f.Type.Kind() {
		case reflect.Int64, reflect.Uint64, reflect.Uint32:
		default:
			t.Errorf("heapKey.%s is a %s: keys must hold only integers", f.Name, f.Type.Kind())
		}
	}
	k := makeKey(-5, 9, evCrash, 77, maxProcesses-1)
	if k.at != -5 || k.seq != 9 || k.kind() != evCrash || k.ref != 77 || k.proc() != maxProcesses-1 {
		t.Errorf("makeKey round trip lost a field: %+v kind=%d proc=%d", k, k.kind(), k.proc())
	}
}

// The initial heap holds an n=200 decide wave (n² keys) without regrowing,
// inside a byte budget that holds whatever n is.
func TestEventHeapSizing(t *testing.T) {
	const keySize = int(unsafe.Sizeof(heapKey{}))
	if c := eventHeapCap(200); c < 200*200 || c*keySize >= 1<<20 {
		t.Errorf("eventHeapCap(200) = %d keys (%d bytes), want >= 40000 keys in < 1 MB", c, c*keySize)
	}
	for _, n := range []int{1, 8, 1000, maxProcesses} {
		if c := eventHeapCap(n); c < 64 || c*keySize > 1<<20 {
			t.Errorf("eventHeapCap(%d) = %d keys, outside [64 keys, 1 MB]", n, c)
		}
	}
}

// A broadcast's envelope is stored once and its slot is cleared — the payload
// reference dropped — exactly when its last queued recipient pops.
func TestBroadcastBodyFreedWithLastRecipient(t *testing.T) {
	const n = 4
	q := newEventQueue(n, 1, 0, 1000, 0)
	defer q.close()
	s := newStepper(q, nil)
	payload := new(int)
	if enq, ok := q.pushBroadcast(Message{Type: "b", Payload: payload}, make([]mailbox, n)); !ok || enq != n {
		t.Fatalf("pushBroadcast = %d, %v", enq, ok)
	}
	if q.bodies.live() != 1 {
		t.Fatalf("%d-recipient broadcast holds %d body slots, want 1", n, q.bodies.live())
	}
	for i := 1; i <= n; i++ {
		if ev := popEvent(t, q, s); ev.msg.Payload != payload {
			t.Fatalf("recipient %d: payload %v, want the broadcast's", i, ev.msg.Payload)
		}
		if want := i < n; (q.bodies.live() == 1) != want {
			t.Fatalf("after %d of %d recipients: %d live body slots", i, n, q.bodies.live())
		}
	}
	if body := q.bodies.slots[0]; body.msg.Payload != nil || body.boxes != nil {
		t.Fatalf("freed slot still references its envelope: %+v", body)
	}
}

// A broadcast whose every recipient the lossy link dropped leaves no slot.
func TestFullyDroppedBroadcastLeavesNoBody(t *testing.T) {
	q := newEventQueue(4, 1, 0, 1000, 1)
	defer q.close()
	if enq, ok := q.pushBroadcast(Message{Payload: new(int)}, make([]mailbox, 4)); !ok || enq != 0 {
		t.Fatalf("pushBroadcast at drop rate 1 = %d, %v; want 0, true", enq, ok)
	}
	if q.bodies.live() != 0 || len(q.heap) != 0 {
		t.Fatalf("dropped broadcast left %d body slots, %d keys", q.bodies.live(), len(q.heap))
	}
	if len(q.bodies.slots) > 0 && q.bodies.slots[0].msg.Payload != nil {
		t.Fatal("dropped broadcast's slot still references the payload")
	}
}

// A stopped ticker and a fired one-shot leave nothing in the timer table once
// their last queued event has popped.
func TestDeadTimersLeaveNoTableSlot(t *testing.T) {
	nw := NewNetwork(2, WithSeed(1))
	defer nw.Close()
	inTask(t, nw, nw.Endpoint(0), func(task *Task) {
		ep := task.ep
		shot := ep.NewTimer(time.Millisecond)
		tick := ep.NewTicker(time.Millisecond)
		if !awaitFire(task, shot) {
			t.Error("one-shot never fired")
		}
		for i := 0; i < 3; i++ {
			if !awaitFire(task, tick) {
				t.Error("ticker never fired")
			}
		}
		tick.Stop()
		// The stopped ticker's last event is still queued; sleeping past it
		// pops and discards it (and the sleep's own one-shot after it).
		if err := ep.Sleep(WithTask(context.Background(), task), 5*time.Millisecond); err != nil {
			t.Errorf("sleep: %v", err)
		}
	})
	q := nw.q
	q.mu.Lock()
	defer q.mu.Unlock()
	if len(q.heap) != 0 || q.timers.live() != 0 {
		t.Fatalf("dead timers left %d queued keys and %d timer-table slots", len(q.heap), q.timers.live())
	}
	for i, tm := range q.timers.slots {
		if tm != nil {
			t.Fatalf("freed timer-table slot %d still references a timer", i)
		}
	}
}
