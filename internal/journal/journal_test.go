package journal

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"weakestfd/internal/net"
)

// Message records draw inst and type from a fixed vocabulary, as a
// protocol's do: a handful of names repeated across the whole stream.
var (
	sampleInsts = []string{"cons.scn", "reg.xscn.r0", "nbac.scn.inner"}
	sampleTypes = []string{"prepare", "promise", "accept", "decide", "get.ack"}
)

// sampleStream synthesizes a plausible trace stream covering every record
// shape and field: message, timer and crash events plus grants and exits,
// including group exits.
func sampleStream(n int) []net.TraceRecord {
	var out []net.TraceRecord
	for i := 0; out == nil || len(out) < n; i++ {
		out = append(out,
			net.TraceRecord{Op: net.TraceOpEvent, Kind: net.TraceKindMessage, At: int64(10 * i), Seq: uint64(3 * i), From: uint64(i % 4), To: uint64((i + 1) % 4), Instance: sampleInsts[i%len(sampleInsts)], Type: sampleTypes[i%len(sampleTypes)], SentAt: int64(10*i - i%7)},
			net.TraceRecord{Op: net.TraceOpGrant, Task: uint64(i % 5), Proc: uint64(i % 4)},
			net.TraceRecord{Op: net.TraceOpEvent, Kind: net.TraceKindTimer, At: int64(10*i + 5), Seq: uint64(3*i + 1), Tid: uint64(i)},
			net.TraceRecord{Op: net.TraceOpEvent, Kind: net.TraceKindCrash, At: int64(10*i + 7), Seq: uint64(3*i + 2), To: uint64(i % 4)},
			net.TraceRecord{Op: net.TraceOpExit, Task: uint64(i % 5), Proc: uint64(i % 4), Group: i%3 == 2},
		)
	}
	return out[:n]
}

// capture runs a stream through a recorder and assembles the journal, with
// the fingerprint computed the way the live digest computes it.
func capture(t testing.TB, stream []net.TraceRecord, max int) *Journal {
	t.Helper()
	rec := NewRecorder(max)
	h := sha256.New()
	var buf [64]byte
	for _, tr := range stream {
		rec.Record(tr)
		h.Write(tr.AppendHash(buf[:0]))
	}
	return rec.Journal(Meta{
		Protocol:         "consensus/omega-sigma",
		Config:           json.RawMessage(`{"n":4,"seed":7}`),
		TraceFingerprint: hex.EncodeToString(h.Sum(nil)),
	})
}

// TestRoundTripByteStability pins the canonical encoding: encode → decode →
// encode is byte-identity, and decode reproduces the structs exactly.
func TestRoundTripByteStability(t *testing.T) {
	j := capture(t, sampleStream(25), KeepAll)
	first, err := j.Encode()
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	back, err := Decode(first)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !reflect.DeepEqual(j.Meta, back.Meta) || !reflect.DeepEqual(j.Records, back.Records) {
		t.Fatal("decoded journal differs structurally from the original")
	}
	second, err := back.Encode()
	if err != nil {
		t.Fatalf("re-encode: %v", err)
	}
	if !bytes.Equal(first, second) {
		t.Fatalf("encode → decode → encode is not byte-identity:\n%s\nvs\n%s", first, second)
	}
}

// TestRecordConversionRoundTrip: every record shape survives the
// net → journal line → net round trip exactly, so the recomputed hash sees
// the same bytes the live digest saw.
func TestRecordConversionRoundTrip(t *testing.T) {
	for i, tr := range sampleStream(10) {
		rec := Record(tr)
		var got Record
		if err := parseRecord(appendRecord(nil, &rec), &got, interner{}); err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if back, _ := got.ToNet(); back != tr {
			t.Fatalf("record %d: round-trip changed the record: %+v vs %+v", i, back, tr)
		}
	}
}

// TestDecodeRefusesFutureSchema: a journal stamped with a newer schema
// version is refused at load, not silently misread.
func TestDecodeRefusesFutureSchema(t *testing.T) {
	j := capture(t, sampleStream(5), KeepAll)
	j.Meta.SchemaVersion = Version + 1
	data, err := j.Encode()
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	if _, err := Decode(data); err == nil || !strings.Contains(err.Error(), "schema_version") {
		t.Fatalf("future schema not refused: %v", err)
	}
}

// TestDecodeRefusesSchemaV1: a version-1 meta line is refused at load with
// the remedy named — its records lack fields the replay checker compares.
func TestDecodeRefusesSchemaV1(t *testing.T) {
	data := []byte(`{"schema_version":1,"protocol":"consensus/omega-sigma","mode":"full","first_index":0,"total_records":1,"events":0,"messages":0,"timers":0,"crashes":0,"grants":1}` + "\n" + `{"op":"G","task":1}` + "\n")
	if _, err := Decode(data); err == nil || !strings.Contains(err.Error(), "re-record") {
		t.Fatalf("schema-v1 journal not refused: %v", err)
	}
}

// TestVerify: the fingerprint recomputation passes on an intact journal and
// pins any record mutation.
func TestVerify(t *testing.T) {
	j := capture(t, sampleStream(25), KeepAll)
	if err := j.Verify(); err != nil {
		t.Fatalf("intact journal failed verification: %v", err)
	}
	mut := capture(t, sampleStream(25), KeepAll)
	mut.Records[12].At++
	if err := mut.Verify(); err == nil || !strings.Contains(err.Error(), "hash to") {
		t.Fatalf("mutated journal passed verification: %v", err)
	}
	// Decode refuses an unknown op; a record built with one by hand hashes
	// to nothing, so it fails as any other mutation does.
	bad := capture(t, sampleStream(5), KeepAll)
	bad.Records[0].Op = 'Z'
	if err := bad.Verify(); err == nil || !strings.Contains(err.Error(), "hash to") {
		t.Fatalf("mangled op not rejected: %v", err)
	}
	tainted := capture(t, sampleStream(5), KeepAll)
	tainted.Meta.TraceFingerprint = ""
	tainted.Meta.TaintReason = "wall-clock escape: test"
	if err := tainted.Verify(); err == nil || !strings.Contains(err.Error(), "tainted") {
		t.Fatalf("tainted journal not refused: %v", err)
	}
}

// TestRingSuffix pins the ring semantics: a wrapped capture keeps the last
// K records in stream order with FirstIndex advanced, and is refused — as a
// suffix, not as a divergence — by both verification and replay.
func TestRingSuffix(t *testing.T) {
	stream := sampleStream(30)
	j := capture(t, stream, 10)
	if j.Meta.Mode != ModeRing || j.Meta.TotalRecords != 30 || j.Meta.FirstIndex != 20 {
		t.Fatalf("ring meta: %+v", j.Meta)
	}
	if len(j.Records) != 10 {
		t.Fatalf("ring retained %d records, want 10", len(j.Records))
	}
	for i, tr := range stream[20:] {
		if j.Records[i] != Record(tr) {
			t.Fatalf("ring record %d is not stream record %d: %+v", i, 20+i, j.Records[i])
		}
	}
	if j.Complete() {
		t.Fatal("a wrapped ring capture claims to be complete")
	}
	if err := j.Verify(); err == nil || !strings.Contains(err.Error(), "journal is a suffix") {
		t.Fatalf("suffix verification refusal: %v", err)
	}
	if err := j.Replayable(); err == nil || !strings.Contains(err.Error(), "journal is a suffix") {
		t.Fatalf("suffix replay refusal: %v", err)
	}

	// An unwrapped ring (capacity never exceeded) is still a complete stream.
	small := capture(t, stream[:8], 10)
	if small.Meta.Mode != ModeRing || !small.Complete() {
		t.Fatalf("unwrapped ring: mode %q, complete %v", small.Meta.Mode, small.Complete())
	}
	if err := small.Verify(); err != nil {
		t.Fatalf("unwrapped ring failed verification: %v", err)
	}
}

// TestCheckerDivergence feeds mutated streams through the checker and pins
// the divergence index at the head, middle and tail of the stream, plus the
// two length mismatches (overrun and early end).
func TestCheckerDivergence(t *testing.T) {
	stream := sampleStream(21)
	j := capture(t, stream, KeepAll)

	replayThrough := func(chk *Checker, s []net.TraceRecord) {
		for _, tr := range s {
			chk.Record(tr)
		}
	}

	// A faithful replay matches everything.
	chk := NewChecker(j)
	replayThrough(chk, stream)
	if div := chk.Finish(); div != nil {
		t.Fatalf("faithful replay diverged: %v", div)
	}
	if chk.Matched() != len(stream) {
		t.Fatalf("matched %d of %d", chk.Matched(), len(stream))
	}

	for _, at := range []int{0, 10, 20} {
		mutated := append([]net.TraceRecord(nil), stream...)
		mutated[at].Seq += 99
		chk := NewChecker(j)
		replayThrough(chk, mutated)
		div := chk.Finish()
		if div == nil || div.Index != at {
			t.Fatalf("mutation at %d: divergence %+v", at, div)
		}
		if div.Expected == nil || div.Actual == nil || *div.Expected == *div.Actual {
			t.Fatalf("mutation at %d: expected/actual not captured: %+v", at, div)
		}
		rep := div.Report(j, 3)
		if !strings.Contains(rep, fmt.Sprintf("diverged at record %d", at)) || !strings.Contains(rep, ">>>") {
			t.Fatalf("mutation at %d: report missing index or marker:\n%s", at, rep)
		}
	}

	// A mutation of an unhashed field alone is still a divergence, and the
	// report's expected and actual lines must show the difference.
	mutated := append([]net.TraceRecord(nil), stream...)
	mutated[1].Proc += 3 // a grant
	chk = NewChecker(j)
	replayThrough(chk, mutated)
	if div := chk.Finish(); div == nil || div.Index != 1 || div.Expected.String() == div.Actual.String() {
		t.Fatalf("proc-only mutation: divergence %+v renders expected and actual alike", div)
	}

	// The run produced a record past the journal's end.
	chk = NewChecker(j)
	replayThrough(chk, append(append([]net.TraceRecord(nil), stream...), stream[0]))
	if div := chk.Finish(); div == nil || div.Index != len(stream) || div.Expected != nil {
		t.Fatalf("overrun divergence: %+v", chk.Finish())
	}

	// The run ended with journal records unconsumed.
	chk = NewChecker(j)
	replayThrough(chk, stream[:15])
	div := chk.Finish()
	if div == nil || div.Index != 15 || div.Actual != nil || !strings.Contains(div.Reason, "the journal holds 6 more") {
		t.Fatalf("early-end divergence: %+v", div)
	}
}

// TestIsPrefix pins the minimisation acceptance relation.
func TestIsPrefix(t *testing.T) {
	stream := sampleStream(20)
	long := capture(t, stream, KeepAll)
	short := capture(t, stream[:12], KeepAll)
	if !IsPrefix(long, short) {
		t.Fatal("a true prefix was rejected")
	}
	if IsPrefix(short, long) {
		t.Fatal("a longer stream was accepted as a prefix of a shorter one")
	}
	if !IsPrefix(long, long) {
		t.Fatal("a journal is not a prefix of itself")
	}
	diverged := capture(t, stream[:12], KeepAll)
	diverged.Records[5].Task += 7
	if IsPrefix(long, diverged) {
		t.Fatal("a diverging stream was accepted as a prefix")
	}
	suffix := capture(t, stream, 8)
	if IsPrefix(long, suffix) || IsPrefix(suffix, short) {
		t.Fatal("a ring suffix participated in the prefix relation")
	}
}

// TestFixtures holds the codec to journals written by the encoding/json
// codec it replaced, one per protocol family (testdata/*.journal): each
// decodes and re-encodes to the identical bytes, verifies against its
// fingerprint, and refolds to the probes captured live. cliutil's
// TestFixturesReplay re-executes the same files.
func TestFixtures(t *testing.T) {
	paths, err := filepath.Glob("testdata/*.journal")
	if err != nil || len(paths) < 8 {
		t.Fatalf("want the 8 fixture journals, got %v (%v)", paths, err)
	}
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		j, err := Decode(data)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		again, err := j.Encode()
		if err != nil {
			t.Fatalf("%s: encode: %v", path, err)
		}
		if !bytes.Equal(again, data) {
			t.Errorf("%s: decode → encode is not byte-identity", path)
		}
		if err := j.Verify(); err != nil {
			t.Errorf("%s: %v", path, err)
		}
		stream, err := j.RecomputeProbes()
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		offline, _ := json.Marshal(stream)
		live, _ := json.Marshal(j.Meta.Probes.Stream)
		if !bytes.Equal(offline, live) {
			t.Errorf("%s: offline probe fold differs from the live capture:\n%s\n%s", path, offline, live)
		}
	}
}

// TestDecodeRefusesNonCanonicalMeta: the meta line, too, must be exactly
// as Encode writes it, and its config must name the run's process count.
func TestDecodeRefusesNonCanonicalMeta(t *testing.T) {
	data, err := capture(t, sampleStream(6), KeepAll).Encode()
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	meta, records, _ := strings.Cut(string(data), "\n")
	for name, bad := range map[string]string{
		"space after colon": strings.Replace(meta, `"mode":"full"`, `"mode": "full"`, 1),
		"reordered keys":    strings.Replace(meta, `"mode":"full","first_index":0`, `"first_index":0,"mode":"full"`, 1),
		"unknown key":       strings.Replace(meta, `"mode":"full"`, `"mode":"full","bogus":1`, 1),
		"spaced config":     strings.Replace(meta, `{"n":4,`, `{"n": 4,`, 1),
		"no process count":  strings.Replace(meta, `{"n":4,`, `{`, 1),
		"zero processes":    strings.Replace(meta, `{"n":4,`, `{"n":0,`, 1),
		"too many":          strings.Replace(meta, `{"n":4,`, `{"n":65537,`, 1),
		"fewer than named":  strings.Replace(meta, `{"n":4,`, `{"n":2,`, 1),
	} {
		if bad == meta {
			t.Fatalf("%s: the mutation did not apply to %s", name, meta)
		}
		_, err := Decode([]byte(bad + "\n" + records))
		if err == nil || !strings.Contains(err.Error(), "line ") {
			t.Errorf("%s: want an error naming a line, got %v", name, err)
		}
	}
}

// FuzzDecodeJournal holds Decode to what its callers rely on, over the
// fixture journals and mangled copies of them: it never panics; a journal
// it accepts re-encodes to its input, less the blank lines it skips; and
// Verify and RecomputeProbes never panic on an accepted journal.
func FuzzDecodeJournal(f *testing.F) {
	paths, err := filepath.Glob("testdata/*.journal")
	if err != nil || len(paths) < 8 {
		f.Fatalf("want the 8 fixture journals, got %v (%v)", paths, err)
	}
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	data, err := os.ReadFile("testdata/consensus.journal")
	if err != nil {
		f.Fatal(err)
	}
	lines := strings.Split(string(data), "\n")
	for _, mangle := range []func([]string){
		func(l []string) { l[2] = `{"op":"Z"}` },
		func(l []string) { l[2] = `{"op":"G","from":3,"task":1}` },
		func(l []string) { l[3] = strings.Replace(l[3], `"proc":`, `"proc":9`, 1) },
		func(l []string) { l[0] = strings.Replace(l[0], `"N":5`, `"N":500000`, 1) },
		func(l []string) { l[1] = l[1][:len(l[1])/2] },
		func(l []string) { l[4] = "  " },
		func(l []string) { l[len(l)-2] += `{"op":"X"}` },
	} {
		l := slices.Clone(lines)
		mangle(l)
		f.Add([]byte(strings.Join(l, "\n")))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		j, err := Decode(data)
		if err != nil {
			return
		}
		again, err := j.Encode()
		if err != nil {
			t.Fatalf("an accepted journal does not encode: %v", err)
		}
		var want []byte
		for _, line := range bytes.Split(data, []byte{'\n'}) {
			if len(bytes.TrimSpace(line)) > 0 {
				want = append(append(want, line...), '\n')
			}
		}
		if !bytes.Equal(again, want) {
			t.Fatalf("an accepted journal re-encodes differently:\n%q\nvs\n%q", again, want)
		}
		_ = j.Verify()
		_, _ = j.RecomputeProbes()
	})
}

// nonCanonicalLines are record lines that encoding/json would read (or
// nearly) but Encode never writes. Decode refuses each with its line number.
var nonCanonicalLines = map[string]string{
	"reordered key":        `{"op":"G","proc":1,"task":2}`,
	"unknown key":          `{"op":"G","task":2,"bogus":1}`,
	"case-folded key":      `{"op":"G","Task":2}`,
	"duplicate key":        `{"op":"G","task":2,"task":2}`,
	"space after colon":    `{"op":"G","task": 2}`,
	"space before brace":   `{"op":"G","task":2 }`,
	"explicit zero at":     `{"op":"E","kind":"timer","at":0,"seq":1,"tid":1}`,
	"explicit empty kind":  `{"op":"E","kind":"","at":5,"seq":1}`,
	"explicit false group": `{"op":"X","task":2,"group":false}`,
	"leading zero seq":     `{"op":"E","kind":"timer","at":5,"seq":07,"tid":1}`,
	"negative zero":        `{"op":"E","kind":"timer","at":-0,"seq":1}`,
	"plus sign":            `{"op":"G","task":+1}`,
	"negative uint":        `{"op":"G","task":-1}`,
	"fraction":             `{"op":"G","task":1.0}`,
	"exponent":             `{"op":"G","task":1e3}`,
	"uint overflow":        `{"op":"G","task":18446744073709551616}`,
	"int overflow":         `{"op":"E","kind":"timer","at":9223372036854775808,"seq":1}`,
	"needless escape":      `{"op":"\u0047","task":2}`,
	"unknown op":           `{"op":"Z"}`,
	"unknown kind":         `{"op":"E","kind":"signal","at":5,"seq":1}`,
	"event without kind":   `{"op":"E","at":5,"seq":1,"tid":1}`,
	"grant with kind":      `{"op":"G","kind":"timer","task":1}`,
	"grant with from":      `{"op":"G","from":3,"task":1}`,
	"timer with inst":      `{"op":"E","kind":"timer","at":5,"seq":1,"inst":"a","tid":1}`,
	"grant with group":     `{"op":"G","task":1,"group":true}`,
	"process outside run":  `{"op":"G","task":1,"proc":4}`,
	"escaped slash":        `{"op":"E","kind":"message","at":5,"seq":1,"inst":"a\/b","type":"t"}`,
	"string for number":    `{"op":"G","task":"2"}`,
	"missing op":           `{"task":2}`,
	"trailing junk":        `{"op":"G","task":2}x`,
	"trailing space":       `{"op":"G","task":2} `,
	"carriage return":      "{\"op\":\"G\",\"task\":2}\r",
	"truncated":            `{"op":"G","task":2`,
	"truncated string":     `{"op":"G`,
	"not an object":        `["G",2]`,
}

// TestDecodeRefusesNonCanonicalLines: each non-canonical record line, put in
// place of line 3 of an intact journal, makes Decode fail naming line 3,
// while blank lines anywhere among the records are still skipped.
func TestDecodeRefusesNonCanonicalLines(t *testing.T) {
	data, err := capture(t, sampleStream(6), KeepAll).Encode()
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	lines := strings.Split(string(data), "\n")
	for name, bad := range nonCanonicalLines {
		mutated := append([]string(nil), lines...)
		mutated[2] = bad
		_, err := Decode([]byte(strings.Join(mutated, "\n")))
		if err == nil || !strings.Contains(err.Error(), "line 3:") {
			t.Errorf("%s: %s: want an error naming line 3, got %v", name, bad, err)
		}
	}
	blanks := append([]string(nil), lines[:3]...)
	blanks = append(blanks, "", "  ")
	blanks = append(blanks, lines[3:]...)
	j, err := Decode([]byte(strings.Join(blanks, "\n")))
	if err != nil || len(j.Records) != 6 {
		t.Fatalf("blank lines not skipped: %v", err)
	}
}
