package journal

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
	"unicode/utf8"

	"weakestfd/internal/net"
)

// jsonRecord is the reference definition of a record line: encoding/json
// (without HTML escaping) over these tags, with op and kind as text, prints
// the line appendRecord prints.
type jsonRecord struct {
	Op       string `json:"op"`             // "E", "G", "X"
	Kind     string `json:"kind,omitempty"` // "message", "timer", "crash" (events only)
	At       int64  `json:"at,omitempty"`
	Seq      uint64 `json:"seq,omitempty"`
	From     uint64 `json:"from,omitempty"`
	To       uint64 `json:"to,omitempty"`
	Instance string `json:"inst,omitempty"`
	Type     string `json:"type,omitempty"`
	Tid      uint64 `json:"tid,omitempty"`
	Task     uint64 `json:"task,omitempty"`
	Sent     int64  `json:"sent,omitempty"`
	Proc     uint64 `json:"proc,omitempty"`
	Group    bool   `json:"group,omitempty"`
}

// The reference text forms of ops and kinds.
var (
	refOps   = map[byte]string{net.TraceOpEvent: "E", net.TraceOpGrant: "G", net.TraceOpExit: "X"}
	refKinds = map[byte]string{net.TraceKindMessage: "message", net.TraceKindTimer: "timer", net.TraceKindCrash: "crash"}
)

// toJSON is r in reference form; ok is false for an unknown op or kind.
func toJSON(r *Record) (j jsonRecord, ok bool) {
	j = jsonRecord{At: r.At, Seq: r.Seq, From: r.From, To: r.To, Instance: r.Instance, Type: r.Type,
		Tid: r.Tid, Task: r.Task, Sent: r.SentAt, Proc: r.Proc, Group: r.Group}
	j.Op, ok = refOps[r.Op]
	if ok && r.Op == net.TraceOpEvent {
		j.Kind, ok = refKinds[r.Kind]
	}
	return j, ok
}

// referenceLine is encoding/json's line for j, without the newline.
func referenceLine(t *testing.T, j jsonRecord) []byte {
	t.Helper()
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(j); err != nil {
		t.Fatalf("reference encode: %v", err)
	}
	return bytes.TrimSuffix(b.Bytes(), []byte{'\n'})
}

// carried is r with every field its op and kind do not carry zeroed.
func carried(r Record) Record {
	c := Record{Op: r.Op}
	switch r.Op {
	case net.TraceOpEvent:
		c.Kind, c.At, c.Seq = r.Kind, r.At, r.Seq
		switch r.Kind {
		case net.TraceKindMessage:
			c.From, c.To, c.Instance, c.Type, c.SentAt = r.From, r.To, r.Instance, r.Type, r.SentAt
		case net.TraceKindTimer:
			c.Tid = r.Tid
		case net.TraceKindCrash:
			c.To = r.To
		}
	case net.TraceOpGrant, net.TraceOpExit:
		c.Task, c.Proc = r.Task, r.Proc
		c.Group = r.Op == net.TraceOpExit && r.Group
	}
	return c
}

// referenceRead reads line as encoding/json does, and reports whether it is
// a canonical record line: a known op and kind, only carried fields, and
// encoding/json prints the record back as the very same bytes.
func referenceRead(t *testing.T, line []byte) (Record, bool) {
	var j jsonRecord
	if json.Unmarshal(line, &j) != nil {
		return Record{}, false
	}
	r := Record{At: j.At, Seq: j.Seq, From: j.From, To: j.To, Instance: j.Instance, Type: j.Type,
		Tid: j.Tid, Task: j.Task, SentAt: j.Sent, Proc: j.Proc, Group: j.Group}
	for op, s := range refOps {
		if s == j.Op {
			r.Op = op
		}
	}
	for kind, s := range refKinds {
		if s == j.Kind && r.Op == net.TraceOpEvent {
			r.Kind = kind
		}
	}
	back, ok := toJSON(&r)
	if !ok || back != j || carried(r) != r || !bytes.Equal(referenceLine(t, j), line) {
		return Record{}, false
	}
	return r, true
}

// FuzzRecordCodec holds the hand-written codec to the encoding/json
// reference, from both ends:
//
//   - a fuzzed Record of a known op and kind prints as the reference bytes.
//     Its line reads back as the record exactly when the record carries only
//     its op and kind's fields and its strings are valid UTF-8 (both
//     encoders replace bad bytes with the U+FFFD escape, which reads back as
//     a different string); any other printed line is refused;
//   - a fuzzed raw line that parseRecord accepts is canonical by the
//     reference, reads as encoding/json reads it, and prints back to the
//     very same bytes. Nothing panics.
func FuzzRecordCodec(f *testing.F) {
	bs := `\`
	strs := []string{
		"", "a\"b", "back" + bs + "slash", "\x00\x01\x1f", "\b\f\n\r\t", "\x7f",
		"<&>", "héllo, 世界", "bad\xffutf8\xfe", "line" + string(rune(0x2028)) + "sep" + string(rune(0x2029)),
		string(utf8.RuneError),
	}
	records := []Record{{}}
	for _, tr := range sampleStream(5) {
		records = append(records, Record(tr))
	}
	records = append(records,
		Record{Op: net.TraceOpEvent, Kind: net.TraceKindMessage, At: math.MinInt64, Seq: math.MaxUint64, From: math.MaxUint64, To: 1,
			Instance: "i", Type: "t", Tid: math.MaxUint64, Task: math.MaxUint64, SentAt: math.MinInt64, Proc: math.MaxUint64, Group: true},
		Record{Op: net.TraceOpEvent, Kind: net.TraceKindTimer, At: -5, Seq: 1, SentAt: -1},
		Record{Op: net.TraceOpGrant, At: math.MaxInt64, SentAt: math.MaxInt64},
		Record{Op: 'Z', Task: 1},
		Record{Op: net.TraceOpEvent, Kind: 7, At: 1},
	)
	for i, s := range strs {
		records = append(records, Record{Op: net.TraceOpEvent, At: 1, Instance: s, Type: s + strs[(i+1)%len(strs)]})
	}
	for _, r := range records {
		f.Add(r.Op, r.Kind, r.At, r.Seq, r.From, r.To, r.Instance, r.Type, r.Tid, r.Task, r.SentAt, r.Proc, r.Group, appendRecord(nil, &r))
	}
	for _, line := range nonCanonicalLines {
		f.Add(net.TraceOpGrant, byte(0), int64(0), uint64(0), uint64(0), uint64(0), "", "", uint64(0), uint64(0), int64(0), uint64(0), false, []byte(line))
	}

	f.Fuzz(func(t *testing.T, op, kind byte, at int64, seq, from, to uint64, inst, typ string,
		tid, task uint64, sent int64, proc uint64, group bool, line []byte) {
		strs := interner{}

		// (a) Record → line.
		r := Record{Op: op, Kind: kind, At: at, Seq: seq, From: from, To: to, Instance: inst, Type: typ,
			Tid: tid, Task: task, SentAt: sent, Proc: proc, Group: group}
		printed := appendRecord(nil, &r)
		j, known := toJSON(&r)
		if want := referenceLine(t, j); known && !bytes.Equal(printed, want) {
			t.Fatalf("appendRecord differs from encoding/json:\n got %s\nwant %s", printed, want)
		}
		ref, canonical := referenceRead(t, printed)
		var got Record
		err := parseRecord(printed, &got, strs)
		switch {
		case canonical && err != nil:
			t.Fatalf("parseRecord refused a canonical line %s: %v", printed, err)
		case canonical && got != ref:
			t.Fatalf("parseRecord read %s as %+v, encoding/json as %+v", printed, got, ref)
		case !canonical && err == nil:
			t.Fatalf("parseRecord accepted %s, which is not canonical", printed)
		}
		wellFormed := known && carried(r) == r && utf8.ValidString(inst) && utf8.ValidString(typ)
		if wellFormed && (!canonical || got != r) {
			t.Fatalf("%+v does not survive its line %s: read back as %+v, %v", r, printed, got, err)
		}

		// (b) line → Record.
		if err := parseRecord(line, &got, strs); err != nil {
			return
		}
		if ref, ok := referenceRead(t, line); !ok || ref != got {
			t.Fatalf("parseRecord accepted %q as %+v; the reference reads %+v, canonical %v", line, got, ref, ok)
		}
		if again := appendRecord(nil, &got); !bytes.Equal(again, line) {
			t.Fatalf("parseRecord accepted %q, which re-encodes as %q", line, again)
		}
	})
}
