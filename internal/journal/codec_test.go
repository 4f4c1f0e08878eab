package journal

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
	"unicode/utf8"
)

// referenceLine is the reference encoding of a record line: encoding/json
// over the Record struct tags, as journals were written before the
// hand-written codec, minus the newline.
func referenceLine(t *testing.T, r *Record) []byte {
	t.Helper()
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(r); err != nil {
		t.Fatalf("reference encode: %v", err)
	}
	return bytes.TrimSuffix(b.Bytes(), []byte{'\n'})
}

// FuzzRecordCodec holds the hand-written codec to encoding/json, from both
// ends:
//
//   - a fuzzed Record prints as the reference bytes, and reads back as
//     json.Unmarshal reads them. The one exception is a string that is not
//     valid UTF-8: both encoders replace its bad bytes with the U+FFFD
//     escape, which reads back as a different string, so that line is not
//     canonical and parseRecord must refuse it;
//   - a fuzzed raw line that parseRecord accepts reads as json.Unmarshal
//     reads it, and prints back to the very same bytes. Nothing panics.
func FuzzRecordCodec(f *testing.F) {
	bs := `\`
	strs := []string{
		"", "a\"b", "back" + bs + "slash", "\x00\x01\x1f", "\b\f\n\r\t", "\x7f",
		"<&>", "héllo, 世界", "bad\xffutf8\xfe", "line" + string(rune(0x2028)) + "sep" + string(rune(0x2029)),
		string(utf8.RuneError),
	}
	records := []Record{{}}
	for _, tr := range sampleStream(5) {
		records = append(records, FromNet(tr))
	}
	records = append(records,
		Record{Op: "E", Kind: "message", At: math.MinInt64, Seq: math.MaxUint64, From: math.MaxUint64, To: 1,
			Instance: "i", Type: "t", Tid: math.MaxUint64, Task: math.MaxUint64, Sent: math.MinInt64, Proc: math.MaxUint64, Group: true},
		Record{Op: "E", Kind: "timer", At: -5, Seq: 1, Sent: -1},
		Record{Op: "G", At: math.MaxInt64, Sent: math.MaxInt64},
	)
	for i, s := range strs {
		records = append(records, Record{Op: s, Kind: strs[(i+1)%len(strs)], At: 1, Instance: s, Type: s + s})
	}
	for _, r := range records {
		f.Add(r.Op, r.Kind, r.At, r.Seq, r.From, r.To, r.Instance, r.Type, r.Tid, r.Task, r.Sent, r.Proc, r.Group, appendRecord(nil, &r))
	}
	for _, line := range nonCanonicalLines {
		f.Add("G", "", int64(0), uint64(0), uint64(0), uint64(0), "", "", uint64(0), uint64(0), int64(0), uint64(0), false, []byte(line))
	}

	f.Fuzz(func(t *testing.T, op, kind string, at int64, seq, from, to uint64, inst, typ string,
		tid, task uint64, sent int64, proc uint64, group bool, line []byte) {
		strs := interner{}

		// (a) Record → line.
		r := Record{Op: op, Kind: kind, At: at, Seq: seq, From: from, To: to, Instance: inst, Type: typ,
			Tid: tid, Task: task, Sent: sent, Proc: proc, Group: group}
		printed := appendRecord(nil, &r)
		if want := referenceLine(t, &r); !bytes.Equal(printed, want) {
			t.Fatalf("appendRecord differs from encoding/json:\n got %s\nwant %s", printed, want)
		}
		var ref, got Record
		if err := json.Unmarshal(printed, &ref); err != nil {
			t.Fatalf("encoding/json cannot read its own line %s: %v", printed, err)
		}
		err := parseRecord(printed, &got, strs)
		switch {
		case ref == r && err != nil:
			t.Fatalf("parseRecord refused a canonical line %s: %v", printed, err)
		case ref == r && got != ref:
			t.Fatalf("parseRecord read %s as %+v, encoding/json as %+v", printed, got, ref)
		case ref != r && err == nil:
			t.Fatalf("parseRecord accepted %s, which does not re-encode to itself", printed)
		}

		// (b) line → Record.
		if err := parseRecord(line, &got, strs); err != nil {
			return
		}
		ref = Record{}
		if err := json.Unmarshal(line, &ref); err != nil || ref != got {
			t.Fatalf("parseRecord accepted %q as %+v; encoding/json gives %+v, %v", line, got, ref, err)
		}
		if again := appendRecord(nil, &got); !bytes.Equal(again, line) {
			t.Fatalf("parseRecord accepted %q, which re-encodes as %q", line, again)
		}
	})
}
