package journal

import "weakestfd/internal/net"

// Recorder captures a run's trace record stream, implementing
// net.TraceRecorder. Full mode (NewRecorder(KeepAll)) keeps every record;
// ring mode (NewRecorder(k), k > 0) keeps the last k — cheap enough for
// always-on capture, at the price of producing a suffix journal once it
// wraps.
//
// Record needs no locking: the step scheduler makes every recorder call
// from its dispatcher (see net.TraceRecorder). Reading the journal back is
// only valid after the run's trace group has exited.
type Recorder struct {
	max   int // ring capacity; <= 0 keeps all
	recs  []Record
	next  int // ring write position, when wrapped
	total int // records seen
}

// NewRecorder returns a recorder keeping the last max records, or every
// record when max is KeepAll (or any value <= 0).
func NewRecorder(max int) *Recorder {
	r := &Recorder{max: max}
	if max > 0 {
		r.recs = make([]Record, 0, max)
	}
	return r
}

// Record implements net.TraceRecorder.
func (r *Recorder) Record(tr net.TraceRecord) {
	r.total++
	if r.max <= 0 || len(r.recs) < r.max {
		r.recs = append(r.recs, Record(tr))
		return
	}
	r.recs[r.next] = Record(tr)
	r.next++
	if r.next == r.max {
		r.next = 0
	}
}

// Total is how many records the run produced (>= the number retained).
func (r *Recorder) Total() int { return r.total }

// Journal assembles the captured stream into a journal under meta. The
// capture fields of meta (Mode, FirstIndex, TotalRecords, schema version)
// are filled in here; callers provide provenance and integrity fields
// (Protocol, Config, TraceFingerprint, TaintReason, counters).
func (r *Recorder) Journal(meta Meta) *Journal {
	meta.SchemaVersion = Version
	meta.TotalRecords = r.total
	recs := make([]Record, 0, len(r.recs))
	if r.max > 0 && r.total > r.max {
		meta.Mode = ModeRing
		meta.FirstIndex = r.total - r.max
		recs = append(recs, r.recs[r.next:]...)
		recs = append(recs, r.recs[:r.next]...)
	} else {
		if r.max > 0 {
			meta.Mode = ModeRing
		} else {
			meta.Mode = ModeFull
		}
		meta.FirstIndex = 0
		recs = append(recs, r.recs...)
	}
	return &Journal{Meta: meta, Records: recs}
}
