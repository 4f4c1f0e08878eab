package net

import (
	"math/rand"
	"sort"
	"testing"

	"weakestfd/internal/model"
)

// refQueue is the reference model the differential test holds the event
// queue to: the layout the slim queue replaced, at its most literal. Every
// pending delivery is a full materialised event — its own copy of the
// envelope, its own mailbox and timer pointers — in one slice kept sorted by
// (at, seq). It restates the queue's contract (RNG draw order, sequence
// numbering, what a recipient of a broadcast receives) and shares only the
// splitmix64 generator with the code under test.
type refQueue struct {
	events             []event
	seq                uint64
	rng, dropRng       splitmix64
	vnow               int64
	minDelay, maxDelay int64
	dropThreshold      uint64
}

func newRefQueue(seed int64, minDelay, maxDelay int64, dropRate float64) *refQueue {
	r := &refQueue{
		rng:      splitmix64{x: uint64(seed)},
		dropRng:  splitmix64{x: uint64(seed) ^ 0xd1b54a32d192ed03},
		minDelay: minDelay,
		maxDelay: maxDelay,
	}
	if dropRate > 0 {
		r.dropThreshold = dropThresholdFor(dropRate)
	}
	return r
}

func (r *refQueue) insert(ev event) {
	i := sort.Search(len(r.events), func(i int) bool {
		o := &r.events[i]
		return o.at > ev.at || (o.at == ev.at && o.seq > ev.seq)
	})
	r.events = append(r.events, event{})
	copy(r.events[i+1:], r.events[i:])
	r.events[i] = ev
}

func (r *refQueue) pushMessage(msg Message, box *mailbox) bool {
	if r.dropThreshold > 0 && r.dropRng.next() < r.dropThreshold {
		return false
	}
	delay := r.minDelay
	if r.maxDelay > r.minDelay {
		delay += int64(r.rng.next() % (uint64(r.maxDelay-r.minDelay) + 1))
	}
	r.seq++
	r.insert(event{at: r.vnow + delay, seq: r.seq, kind: evMessage, sentAt: r.vnow, msg: msg, box: box})
	return true
}

// pushBroadcast is the serial loop a batched broadcast must be
// indistinguishable from: one pushMessage per recipient, in recipient order.
func (r *refQueue) pushBroadcast(tmpl Message, boxes []mailbox) (enqueued int) {
	for i := range boxes {
		m := tmpl
		m.To = model.ProcessID(i)
		m.SentAt = tmpl.SentAt + model.Time(i)
		if r.pushMessage(m, &boxes[i]) {
			enqueued++
		}
	}
	return enqueued
}

func (r *refQueue) scheduleTimer(t *Timer, at int64) {
	r.seq++
	r.insert(event{at: at, seq: r.seq, kind: evTimer, tm: t})
}

func (r *refQueue) pushCrash(p model.ProcessID, at int64) {
	r.seq++
	r.insert(event{at: at, seq: r.seq, kind: evCrash, msg: Message{To: p}})
}

func (r *refQueue) pop() event {
	ev := r.events[0]
	r.events = r.events[1:]
	if ev.at > r.vnow {
		r.vnow = ev.at
	}
	return ev
}

// runQueueDifferential interprets prog as a sequence of queue operations and
// applies each to a fresh eventQueue and to the reference model, requiring
// after every step the same outcome: identical enqueued/dropped counts,
// identical popped events field for field (envelope, SentAt, sentAt, mailbox,
// timer), identical clocks, sequence numbers and RNG states. It ends by
// draining both and checking the slabs came back empty.
func runQueueDifferential(t *testing.T, seed int64, n int, dropRate float64, prog []byte) {
	const minDelay, maxDelay = 0, 200_000
	q := newEventQueue(n, seed, minDelay, maxDelay, dropRate)
	defer q.close()
	s := newStepper(q, nil)
	ref := newRefQueue(seed, minDelay, maxDelay, dropRate)

	instances := [2][]mailbox{make([]mailbox, n), make([]mailbox, n)}
	names := [2]string{"alpha", "beta"}
	timers := make([]*Timer, 8)
	for i := range timers {
		timers[i] = &Timer{id: uint64(i + 1)}
	}
	payloads := []any{nil, 7, "text", &Timer{}}

	// arg reads the next program byte (zero once the program is spent).
	pc := 0
	arg := func() int {
		if pc >= len(prog) {
			return 0
		}
		b := prog[pc]
		pc++
		return int(b)
	}
	var sentAt model.Time
	envelope := func() Message {
		a := arg()
		return Message{
			From:     model.ProcessID(a % n),
			Type:     [2]string{"req", "ack"}[a&1],
			Instance: names[a>>1&1],
			Payload:  payloads[a>>2&3],
			Aux:      int64(a),
			Aux2:     int64(-a),
		}
	}
	pop := func(step int) {
		want := ref.pop()
		got := popEvent(t, q, s)
		if got != want {
			t.Fatalf("step %d: popped event differs\n got %+v\nwant %+v", step, got, want)
		}
	}
	for step := 0; pc < len(prog); step++ {
		switch op := arg() % 8; op {
		case 0, 1:
			msg := envelope()
			inst := msg.Aux >> 1 & 1
			msg.To = model.ProcessID(arg() % n)
			sentAt++
			msg.SentAt = sentAt
			got := q.pushMessage(msg, instances[inst])
			want := ref.pushMessage(msg, &instances[inst][msg.To])
			if got != want {
				t.Fatalf("step %d: pushMessage enqueued=%v, reference %v", step, got, want)
			}
		case 2:
			tmpl := envelope()
			inst := tmpl.Aux >> 1 & 1
			tmpl.SentAt = sentAt + 1
			sentAt += model.Time(n)
			got, ok := q.pushBroadcast(tmpl, instances[inst])
			want := ref.pushBroadcast(tmpl, instances[inst])
			if !ok || got != want {
				t.Fatalf("step %d: pushBroadcast enqueued %d (ok=%v), reference %d of %d", step, got, ok, want, n)
			}
		case 3:
			tm := timers[arg()%len(timers)]
			at := ref.vnow + int64(arg())*1000
			q.scheduleTimer(tm, at)
			ref.scheduleTimer(tm, at)
		case 4:
			p := model.ProcessID(arg() % n)
			at := ref.vnow + int64(arg())*1000
			q.pushCrash(p, at)
			ref.pushCrash(p, at)
		default:
			if len(ref.events) > 0 {
				pop(step)
			}
		}
		if q.seq != ref.seq || q.vnow != ref.vnow || q.rng != ref.rng || q.dropRng != ref.dropRng || len(q.heap) != len(ref.events) {
			t.Fatalf("step %d: state differs: seq %d/%d vnow %d/%d rng %x/%x dropRng %x/%x queued %d/%d",
				step, q.seq, ref.seq, q.vnow, ref.vnow, q.rng.x, ref.rng.x, q.dropRng.x, ref.dropRng.x, len(q.heap), len(ref.events))
		}
	}
	for len(ref.events) > 0 {
		pop(-1)
	}
	if len(q.heap) != 0 || q.bodies.live() != 0 || q.timers.live() != 0 {
		t.Fatalf("drained queue still holds %d keys, %d bodies, %d timer slots", len(q.heap), q.bodies.live(), q.timers.live())
	}
}

// FuzzQueueDifferential holds the slim queue to the reference model on
// arbitrary interleavings of pushMessage / pushBroadcast / scheduleTimer /
// pushCrash / pop, with and without losses. Its seed corpus — short
// hand-written programs plus long generated ones that grow the heap past its
// initial capacity and take both restoreAppended strategies — runs as a
// plain test under `go test`.
func FuzzQueueDifferential(f *testing.F) {
	f.Add(int64(1), uint8(3), uint8(0), []byte{0, 9, 1, 2, 5, 3, 0, 4, 4, 1, 2, 5, 5, 5, 5, 5})
	f.Add(int64(7), uint8(4), uint8(2), []byte{2, 13, 2, 6, 5, 5, 2, 1, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5})
	f.Add(int64(42), uint8(1), uint8(3), []byte{2, 0, 2, 0, 2, 0, 0, 0, 0, 5})
	for i, c := range []struct {
		n, drop uint8
		ops     int
	}{{5, 0, 2000}, {16, 2, 2000}, {200, 0, 300}, {200, 1, 300}, {31, 3, 2000}} {
		rng := rand.New(rand.NewSource(int64(i)))
		prog := make([]byte, c.ops)
		rng.Read(prog)
		f.Add(int64(100+i), c.n, c.drop, prog)
	}
	f.Fuzz(func(t *testing.T, seed int64, n, drop uint8, prog []byte) {
		dropRate := [4]float64{0, 0.05, 0.3, 0.9}[drop%4]
		runQueueDifferential(t, seed, max(1, int(n)), dropRate, prog)
	})
}
