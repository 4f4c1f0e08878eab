package scenario

import (
	"bytes"
	"context"
	"strings"
	"testing"
	"time"

	"weakestfd/internal/journal"
	"weakestfd/internal/net"
)

// countingRecorder is a trivial Config.Recorder observer.
type countingRecorder struct{ n int }

func (c *countingRecorder) Record(net.TraceRecord) { c.n++ }

// TestJournaledRunByteStable pins the journal's place on the determinism
// contract: capture is observe-only (the journaled run keeps the
// fingerprint of its unjournaled twin), journal bytes are a pure function
// of (seed, config), the journal verifies against the live fingerprint, and
// its meta mirrors the run's trace counters.
func TestJournaledRunByteStable(t *testing.T) {
	ctx := context.Background()
	plain := New(5, WithSeed(120), WithDelays(time.Millisecond, 10*time.Millisecond)).Run(ctx, Consensus{})
	if !plain.Verdict.OK || plain.TraceFingerprint == "" {
		t.Fatalf("plain run: verdict %v, trace %q", plain.Verdict, plain.TraceFingerprint)
	}

	s := New(5, WithSeed(120), WithDelays(time.Millisecond, 10*time.Millisecond), WithJournal(JournalAll))
	res := s.Run(ctx, Consensus{})
	if !res.Verdict.OK || res.Journal == nil {
		t.Fatalf("journaled run: verdict %v, journal %v", res.Verdict, res.Journal)
	}
	if res.TraceFingerprint != plain.TraceFingerprint {
		t.Fatalf("journaling perturbed the trace: %s vs %s", res.TraceFingerprint, plain.TraceFingerprint)
	}
	j := res.Journal
	if j.Meta.Mode != journal.ModeFull || !j.Complete() {
		t.Fatalf("full-mode journal: mode %q, complete %v", j.Meta.Mode, j.Complete())
	}
	if j.Meta.Protocol != res.Protocol || j.Meta.TraceFingerprint != res.TraceFingerprint {
		t.Fatalf("journal meta provenance: %+v", j.Meta)
	}
	st := res.TraceSummary
	if j.Meta.Events != st.Events || j.Meta.Messages != st.Messages || j.Meta.Timers != st.Timers ||
		j.Meta.Crashes != st.Crashes || j.Meta.Grants != st.Grants {
		t.Fatalf("journal meta counters %+v do not mirror trace summary %+v", j.Meta, st)
	}
	if err := j.Verify(); err != nil {
		t.Fatalf("journal failed verification against the live fingerprint: %v", err)
	}

	first, err := j.Encode()
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	again := s.Run(ctx, Consensus{})
	second, err := again.Journal.Encode()
	if err != nil {
		t.Fatalf("encode second run: %v", err)
	}
	if !bytes.Equal(first, second) {
		t.Fatal("two identically-configured runs journaled different bytes")
	}
}

// TestJournalRingSuffix: a small ring wraps on a real run and the resulting
// suffix journal refuses verification and replay as a suffix — not by
// diverging at record 0.
func TestJournalRingSuffix(t *testing.T) {
	res := New(5, WithSeed(121), WithJournal(16)).Run(context.Background(), Consensus{})
	if !res.Verdict.OK || res.Journal == nil {
		t.Fatalf("verdict %v, journal %v", res.Verdict, res.Journal)
	}
	j := res.Journal
	if j.Meta.Mode != journal.ModeRing || len(j.Records) != 16 {
		t.Fatalf("ring journal: mode %q, %d records", j.Meta.Mode, len(j.Records))
	}
	if j.Meta.FirstIndex != j.Meta.TotalRecords-16 || j.Complete() {
		t.Fatalf("ring journal indices: %+v", j.Meta)
	}
	if err := j.Replayable(); err == nil || !strings.Contains(err.Error(), "journal is a suffix") {
		t.Fatalf("suffix replay refusal: %v", err)
	}
	if _, err := Replay(context.Background(), Consensus{}, j); err == nil || !strings.Contains(err.Error(), "journal is a suffix") {
		t.Fatalf("Replay accepted a suffix journal: %v", err)
	}
}

// TestReplayRoundTrip: a journaled run replays against its own journal with
// every record matching, through an encode/decode cycle — exactly what
// cmd/replay does with the on-disk file.
func TestReplayRoundTrip(t *testing.T) {
	ctx := context.Background()
	for _, tc := range []struct {
		name  string
		s     *Scenario
		proto Protocol
	}{
		{"consensus", New(5, WithSeed(122), WithCrash(0, 5*time.Millisecond), WithJournal(JournalAll)), Consensus{}},
		{"extract/sigma", New(5, WithSeed(7), WithCrash(4, time.Millisecond), WithJournal(JournalAll)), SigmaExtraction{}},
		{"extract/sigma-majority", New(4, WithSeed(112), WithJournal(JournalAll)), SigmaExtraction{Majority: true}},
	} {
		res := tc.s.Run(ctx, tc.proto)
		if res.Journal == nil {
			t.Fatalf("%s: no journal: verdict %v", tc.name, res.Verdict)
		}
		data, err := res.Journal.Encode()
		if err != nil {
			t.Fatalf("%s: encode: %v", tc.name, err)
		}
		j, err := journal.Decode(data)
		if err != nil {
			t.Fatalf("%s: decode: %v", tc.name, err)
		}
		rr, err := Replay(ctx, tc.proto, j)
		if err != nil {
			t.Fatalf("%s: replay: %v", tc.name, err)
		}
		if !rr.OK() || rr.Matched != len(j.Records) {
			t.Fatalf("%s: replay diverged: %+v (matched %d of %d)", tc.name, rr.Divergence, rr.Matched, len(j.Records))
		}
		if rr.Result.TraceFingerprint != j.Meta.TraceFingerprint {
			t.Fatalf("%s: replayed fingerprint %s differs from journal's %s", tc.name, rr.Result.TraceFingerprint, j.Meta.TraceFingerprint)
		}
	}
}

// TestReplayDivergesOnMutation mutates one journal record at the head,
// middle and tail of the stream; replay must stop at exactly that index.
func TestReplayDivergesOnMutation(t *testing.T) {
	ctx := context.Background()
	res := New(4, WithSeed(123), WithJournal(JournalAll)).Run(ctx, Consensus{})
	if res.Journal == nil {
		t.Fatalf("no journal: verdict %v", res.Verdict)
	}
	ref := res.Journal
	for _, at := range []int{0, len(ref.Records) / 2, len(ref.Records) - 1} {
		data, err := ref.Encode()
		if err != nil {
			t.Fatalf("encode: %v", err)
		}
		j, err := journal.Decode(data)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		// Bump a field the record actually carries, whatever its shape.
		r := &j.Records[at]
		if r.Op == net.TraceOpEvent {
			r.Seq += 97
		} else {
			r.Task += 97
		}
		rr, err := Replay(ctx, Consensus{}, j)
		if err != nil {
			t.Fatalf("mutation at %d: replay error: %v", at, err)
		}
		if rr.OK() || rr.Divergence.Index != at {
			t.Fatalf("mutation at %d: divergence %+v", at, rr.Divergence)
		}
		if rep := rr.Divergence.Report(j, 4); !strings.Contains(rep, ">>>") {
			t.Fatalf("mutation at %d: report has no context marker:\n%s", at, rep)
		}
	}
}

// TestReplayRefusesProtocolMismatch: a journal replays only under the
// protocol it recorded.
func TestReplayRefusesProtocolMismatch(t *testing.T) {
	ctx := context.Background()
	res := New(4, WithSeed(124), WithJournal(JournalAll)).Run(ctx, QC{})
	if res.Journal == nil {
		t.Fatalf("no journal: verdict %v", res.Verdict)
	}
	if _, err := Replay(ctx, Consensus{}, res.Journal); err == nil || !strings.Contains(err.Error(), "journal records protocol") {
		t.Fatalf("protocol mismatch not refused: %v", err)
	}
}

// TestTaintedJournalCarriesReason forces a wall-clock escape (total message
// loss under a tight timeout: consensus can never decide, so the runners are
// parked when the backstop fires) and pins the taint surface end to end: the
// run forfeits its fingerprint but names the escape, the journal records the
// reason in its meta, and replay refuses the journal with that reason.
func TestTaintedJournalCarriesReason(t *testing.T) {
	res := New(3, WithSeed(126), WithDropRate(1), WithSafetyOnly(),
		WithTimeout(200*time.Millisecond), WithJournal(JournalAll)).Run(context.Background(), Consensus{})
	if res.TraceFingerprint != "" {
		t.Fatalf("tainted run kept a fingerprint %s", res.TraceFingerprint)
	}
	if res.TraceSummary.TaintReason == "" {
		t.Fatalf("tainted run carries no reason: %+v", res.TraceSummary)
	}
	j := res.Journal
	if j == nil {
		t.Fatal("tainted run produced no journal (the capture should survive for inspection)")
	}
	if j.Meta.TaintReason != res.TraceSummary.TaintReason || j.Meta.TraceFingerprint != "" {
		t.Fatalf("journal meta does not mirror the taint: %+v", j.Meta)
	}
	if err := j.Replayable(); err == nil || !strings.Contains(err.Error(), "tainted") {
		t.Fatalf("tainted journal replay refusal: %v", err)
	}
	if _, err := Replay(context.Background(), Consensus{}, j); err == nil || !strings.Contains(err.Error(), "tainted") {
		t.Fatalf("Replay accepted a tainted journal: %v", err)
	}
}

// TestJournalTeesToConfigRecorder: Config.Recorder observes the same stream
// the journal captures when both are set.
func TestJournalTeesToConfigRecorder(t *testing.T) {
	var cr countingRecorder
	cfg := New(4, WithSeed(127), WithJournal(JournalAll)).Config()
	cfg.Recorder = &cr
	res := FromConfig(cfg).Run(context.Background(), Consensus{})
	if res.Journal == nil {
		t.Fatalf("no journal: verdict %v", res.Verdict)
	}
	if cr.n != res.Journal.Meta.TotalRecords || cr.n == 0 {
		t.Fatalf("observer saw %d records, journal captured %d", cr.n, res.Journal.Meta.TotalRecords)
	}
}

// TestMinimizeTraceJournaled: with journaling on, trace minimisation also
// accepts candidates whose full schedule is an exact prefix of the
// reference's — and the equality case still holds byte-for-byte.
func TestMinimizeTraceJournaled(t *testing.T) {
	ctx := context.Background()
	ref := New(4, WithSeed(128), WithJournal(JournalAll)).Run(ctx, Consensus{})
	if !ref.Verdict.OK || ref.Journal == nil {
		t.Fatalf("reference: verdict %v", ref.Verdict)
	}
	cfg := New(4, WithSeed(128), WithCrash(3, 4*ref.VirtualEnd), WithJournal(JournalAll)).Config()
	mr, err := MinimizeTrace(ctx, cfg, Consensus{})
	if err != nil {
		t.Fatalf("MinimizeTrace: %v", err)
	}
	got := FromConfig(mr.Config).Run(ctx, Consensus{})
	if got.TraceFingerprint != mr.TraceFingerprint {
		t.Fatalf("minimal config does not reproduce its trace: %s vs %s", got.TraceFingerprint, mr.TraceFingerprint)
	}
	// The minimal run's schedule must relate to the reference schedule by the
	// acceptance relation: equal, or a strict prefix.
	refJ := FromConfig(cfg).Run(ctx, Consensus{}).Journal
	if got.Journal == nil || refJ == nil {
		t.Fatal("journaling was dropped during minimisation")
	}
	if got.TraceFingerprint != refJ.Meta.TraceFingerprint && !journal.IsPrefix(refJ, got.Journal) {
		t.Fatal("minimal schedule is neither equal to nor a prefix of the reference schedule")
	}
}
