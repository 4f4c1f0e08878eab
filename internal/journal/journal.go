// Package journal stores the step scheduler's trace record stream as a
// structured, versioned on-disk artifact, and replays it.
//
// The trace tier (internal/net's step scheduler) already makes the full
// record stream — deliveries, task grants, clean exits, logical clocks — a
// byte-reproducible pure function of (seed, config), but by itself keeps only
// its SHA-256 (the TraceFingerprint). A journal keeps the records as they
// are — a Record is a net.TraceRecord — captured through the
// net.TraceRecorder hook that sits beside the digest. On top of the stored
// stream sit four operations:
//
//   - Verify recomputes the SHA-256 over the journal's records through the
//     same net.TraceRecord.AppendHash encoding the live digest uses and
//     cross-checks it against the recorded fingerprint — proof that the
//     journal and the hash saw the identical stream.
//   - Checker re-checks a live run against the journal record-by-record
//     (scenario.Replay wires it in as the run's recorder), stopping at the
//     first mismatch with a precise Divergence.
//   - RecomputeProbes folds the records through the probe analyzer offline.
//   - IsPrefix compares two journals for prefix containment, the acceptance
//     relation trace-minimisation uses.
//
// # Place on the determinism contract
//
// Journal bytes are trace-tier: they are a pure function of (seed, config) —
// two identically-configured runs journal byte-identical files — and
// capturing them is observe-only, so a journaled run keeps the
// TraceFingerprint of its unjournaled twin. Tainted runs (a wall-clock escape
// cut the schedule at a point virtual time cannot pin) journal their taint
// reason in place of a fingerprint, and replay refuses them with that reason.
//
// # On-disk format
//
// A journal is JSON-lines: line 1 is the Meta object (schema_version first),
// each subsequent line one Record. Loaders reject future schema versions, the
// same policy as cliutil reports, and version 1 (see Version). Encoding is
// canonical: the meta line is encoding/json over the Meta struct, and each
// record line is printed by a hand-written codec (codec.go, which also
// holds the text forms of ops and kinds) — fixed key order, only the fields
// the record's op and kind carry, zero fields omitted — without reflection.
// Decode accepts exactly what Encode writes: a line that is valid JSON for
// the same journal but not in that form (keys reordered, whitespace, an
// explicit zero), an unknown op or kind, a field its op and kind do not
// carry, or a process the run does not have is refused with its line
// number. So load → re-encode is byte-identity, less skipped blank lines,
// which the round-trip tests, FuzzDecodeJournal and the committed testdata
// journals pin.
package journal

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"

	"weakestfd/internal/net"
	"weakestfd/internal/probe"
)

// Version is the journal schema version this build reads and writes. Loaders
// reject journals stamped with a newer version — the records they would
// silently misread are exactly the ones a newer writer added fields to.
// Version 2 added the observational record fields (sent, proc, group) and the
// probe block in the meta. Version-1 journals lack fields the replay checker
// compares and the probe fold consumes, so loaders reject them too: a run is
// a pure function of its recorded config, so re-recording loses nothing.
const Version = 2

// KeepAll selects full-mode capture (every record) when passed as a
// recorder's ring size; positive sizes keep the last K records.
const KeepAll = -1

// Meta is the journal header: provenance and integrity data for the record
// stream that follows.
type Meta struct {
	SchemaVersion int `json:"schema_version"`
	// Protocol is the run's protocol name (scenario.Protocol.Name) — the
	// registry key replay rebuilds the protocol from.
	Protocol string `json:"protocol,omitempty"`
	// Params is the protocol's parameter by its flag name ("rounds",
	// "coordinator"; scenario.ProtocolParam), recorded only by the
	// protocols that read one, so replay rebuilds the protocol that ran.
	Params map[string]int `json:"params,omitempty"`
	// Config is the run's scenario configuration, embedded verbatim so a
	// journal is a self-contained reproducer (the journaling knobs
	// themselves are zeroed: replaying attaches a checker, not a recorder).
	// Its N, the run's process count, bounds the process ids records name.
	Config json.RawMessage `json:"config,omitempty"`
	// TraceFingerprint is the run's trace digest — the hex SHA-256 the
	// records must hash back to (Verify). Empty for tainted runs.
	TraceFingerprint string `json:"trace_fingerprint,omitempty"`
	// TaintReason is why the run forfeited its trace, when it did: the
	// wall-clock escape that cut the schedule. Replay refuses tainted
	// journals with this reason instead of diverging confusingly.
	TaintReason string `json:"taint_reason,omitempty"`
	// Mode is "full" or "ring".
	Mode string `json:"mode"`
	// FirstIndex is the stream index of the first retained record: 0 in
	// full mode, TotalRecords-len(records) after a ring wrapped. A journal
	// with FirstIndex > 0 is a suffix — inspectable, but neither verifiable
	// nor replayable.
	FirstIndex int `json:"first_index"`
	// TotalRecords is how many records the run produced (>= the number
	// retained).
	TotalRecords int `json:"total_records"`
	// Events..Grants mirror the run's TraceStats counters.
	Events   int64 `json:"events"`
	Messages int64 `json:"messages"`
	Timers   int64 `json:"timers"`
	Crashes  int64 `json:"crashes"`
	Grants   int64 `json:"grants"`
	// Probes is the run's live-captured probe block (schema v2+): the fold
	// of the very record stream this journal stores, kept so replay -stats
	// can recompute the stream probes offline and assert equality, and so
	// the detection join (which needs the suspect history, not stored here)
	// survives alongside the records.
	Probes *probe.Probes `json:"probes,omitempty"`
}

// Modes of Meta.Mode.
const (
	ModeFull = "full"
	ModeRing = "ring"
)

// Record is one trace record as the journal stores it: net.TraceRecord
// itself, so capture, replay checking, verification and the probe refold
// convert it for free. Its line form is codec.go's.
type Record net.TraceRecord

// ToNet returns the record as a net.TraceRecord; the error is always nil.
func (r Record) ToNet() (net.TraceRecord, error) { return net.TraceRecord(r), nil }

// Journal is one run's captured record stream plus its header.
type Journal struct {
	Meta    Meta
	Records []Record
}

// Encode renders the journal canonically: the meta line, then one line per
// record, each compact JSON. Encoding a loaded journal reproduces the input
// byte-for-byte (the round-trip tests pin this), so journals can be
// compared, hashed and diffed as files.
func (j *Journal) Encode() ([]byte, error) {
	meta, err := encodeMeta(&j.Meta)
	if err != nil {
		return nil, err
	}
	out := make([]byte, 0, len(meta)+recordsSize(j.Records))
	out = append(out, meta...)
	for i := range j.Records {
		out = appendRecord(out, &j.Records[i])
		out = append(out, '\n')
	}
	return out, nil
}

// encodeMeta renders the meta line, newline included: encoding/json without
// HTML escaping.
func encodeMeta(m *Meta) ([]byte, error) {
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(m); err != nil {
		return nil, fmt.Errorf("journal: encode meta: %w", err)
	}
	return b.Bytes(), nil
}

// recordsSize estimates the encoded size of recs, with an eighth to spare,
// so Encode allocates its output once instead of regrowing it through the
// stream. It samples 16 runs of 16 consecutive records spread over the
// stream: runs, so that a stream repeating a short pattern of record shapes
// is not sampled at one phase of it.
func recordsSize(recs []Record) int {
	var scratch [256]byte
	sampled, size := 0, 0
	for run := 0; run < 16; run++ {
		start := run * len(recs) / 16
		for i := start; i < min(start+16, len(recs)); i++ {
			size += len(appendRecord(scratch[:0], &recs[i])) + 1
			sampled++
		}
	}
	if sampled == 0 {
		return 0
	}
	return size * len(recs) / sampled * 9 / 8
}

// maxProcesses bounds a journal's process count: far above any run the
// harness can finish (a run's message count grows as the square of it), and
// low enough that a mangled count cannot make a loader allocate gigabytes.
const maxProcesses = 1 << 16

// shortestRecordLine is the shortest line a record encodes to, newline
// included; it bounds how many records a byte count can hold.
const shortestRecordLine = len(`{"op":"G"}` + "\n")

// Decode parses a journal, rejecting schema versions this build cannot read
// faithfully: future ones, and version 1. Every line must be exactly as
// Encode writes it (see parseRecord for the record lines); blank lines are
// skipped. A record may name only processes of the run, whose count is the
// N of the meta line's config (at most 65 536). Errors name the 1-based line of the input,
// the meta line being line 1.
func Decode(data []byte) (*Journal, error) {
	if len(data) == 0 {
		return nil, fmt.Errorf("journal: empty input")
	}
	head, rest, _ := bytes.Cut(data, []byte{'\n'})
	j := &Journal{}
	if err := json.Unmarshal(head, &j.Meta); err != nil {
		return nil, fmt.Errorf("journal: parse meta line: %w", err)
	}
	if j.Meta.SchemaVersion > Version {
		return nil, fmt.Errorf("journal: schema_version %d is newer than this build understands (%d); rebuild or use a newer binary", j.Meta.SchemaVersion, Version)
	}
	if j.Meta.SchemaVersion < 2 {
		return nil, fmt.Errorf("journal: schema_version %d predates the record fields replay and probes need (sent/proc/group landed in 2); re-record the run", j.Meta.SchemaVersion)
	}
	if canon, err := encodeMeta(&j.Meta); err != nil || !bytes.Equal(canon[:len(canon)-1], head) {
		return nil, fmt.Errorf("journal: line 1: the meta line is not as Encode writes it (keys reordered or unknown, spaces, or a value in another form)")
	}
	// The process count bounds the ids records name, so a mangled id cannot
	// size the probe fold's per-process vector.
	var cfg struct{ N uint64 }
	if err := json.Unmarshal(j.Meta.Config, &cfg); err != nil || cfg.N == 0 || cfg.N > maxProcesses {
		return nil, fmt.Errorf("journal: line 1: the meta line's config names no process count between 1 and %d", maxProcesses)
	}
	// One slot per line, but never more than the bytes could hold records:
	// a run of blank lines must not size a huge slice.
	lines := bytes.Count(rest, []byte{'\n'}) + 1
	j.Records = make([]Record, 0, min(lines, len(rest)/shortestRecordLine+1))
	strs := interner{}
	for line := 2; len(rest) > 0; line++ {
		var text []byte
		text, rest, _ = bytes.Cut(rest, []byte{'\n'})
		if len(bytes.TrimSpace(text)) == 0 {
			continue
		}
		j.Records = append(j.Records, Record{})
		r := &j.Records[len(j.Records)-1]
		if err := parseRecord(text, r, strs); err != nil {
			return nil, fmt.Errorf("journal: line %d: %w", line, err)
		}
		if p := max(r.From, r.To, r.Proc); p >= cfg.N {
			return nil, fmt.Errorf("journal: line %d: process %d is not one of the run's %d", line, p, cfg.N)
		}
	}
	return j, nil
}

// ReadFile loads a journal from path.
func ReadFile(path string) (*Journal, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	j, err := Decode(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return j, nil
}

// Complete reports whether the journal holds the run's whole record stream.
// A ring capture that wrapped is a suffix: still inspectable, but not
// verifiable or replayable.
func (j *Journal) Complete() bool {
	return j.Meta.FirstIndex == 0 && len(j.Records) == j.Meta.TotalRecords
}

// suffixErr names exactly what is missing from a suffix journal.
func (j *Journal) suffixErr(op string) error {
	return fmt.Errorf("journal is a suffix: ring capture kept the last %d of %d records (first retained index %d); %s needs a full journal (capture with KeepAll)",
		len(j.Records), j.Meta.TotalRecords, j.Meta.FirstIndex, op)
}

// Verify recomputes the SHA-256 over the journal's records — through the
// same AppendHash encoding the live digest consumed — and cross-checks it
// against the recorded TraceFingerprint. A pass proves the journal and the
// trace hash saw the identical stream; drift between the recorder and the
// digest encodings (the class of bug PR 8's timer-lease leak was) fails
// here.
func (j *Journal) Verify() error {
	if j.Meta.TaintReason != "" {
		return fmt.Errorf("journal records a tainted run, which has no fingerprint to verify against: %s", j.Meta.TaintReason)
	}
	if j.Meta.TraceFingerprint == "" {
		return fmt.Errorf("journal records no trace fingerprint")
	}
	if !j.Complete() {
		return j.suffixErr("verification")
	}
	h := sha256.New()
	var buf []byte // kept at its high-water size: message records outgrow a small array
	for i := range j.Records {
		buf = (*net.TraceRecord)(&j.Records[i]).AppendHash(buf[:0])
		h.Write(buf)
	}
	got := hex.EncodeToString(h.Sum(nil))
	if got != j.Meta.TraceFingerprint {
		return fmt.Errorf("journal records hash to %s, but the recorded trace fingerprint is %s: the journal and the trace digest did not see the same stream", got, j.Meta.TraceFingerprint)
	}
	return nil
}

// RecomputeProbes folds the journal's stored record stream through the
// probe analyzer — the offline twin of live capture, no re-execution. It
// refuses journals that cannot anchor the fold: tainted runs (the stream
// was cut at a wall-clock point) and ring suffixes (the fold needs the whole
// stream).
func (j *Journal) RecomputeProbes() (probe.StreamProbes, error) {
	var none probe.StreamProbes
	if j.Meta.TaintReason != "" {
		return none, fmt.Errorf("journal records a tainted run; its stream was cut by wall-clock and has no well-defined probes: %s", j.Meta.TaintReason)
	}
	if !j.Complete() {
		return none, j.suffixErr("probe recomputation")
	}
	a := probe.NewAnalyzer(0)
	for i := range j.Records {
		a.Record(net.TraceRecord(j.Records[i]))
	}
	return a.Finish(), nil
}

// Replayable reports whether the journal can anchor a replay, with a
// precise refusal otherwise: tainted runs (the schedule suffix was cut by
// wall-clock; replay would diverge at an unpinnable point) and ring
// suffixes (replay would "diverge" at record 0 for the wrong reason).
func (j *Journal) Replayable() error {
	if j.Meta.TaintReason != "" {
		return fmt.Errorf("journal records a tainted run; the recorded schedule is not reproducible: %s", j.Meta.TaintReason)
	}
	if !j.Complete() {
		return j.suffixErr("replay")
	}
	if len(j.Meta.Config) == 0 {
		return fmt.Errorf("journal carries no scenario config to re-execute")
	}
	return nil
}

// IsPrefix reports whether short's record stream is a prefix of long's.
// Both journals must be complete (a ring suffix has no well-defined
// prefix relation). This is the acceptance relation trace-minimisation
// uses: a shrunk config whose whole schedule is an exact prefix of the
// reference schedule exercised the same executions, just fewer of them.
func IsPrefix(long, short *Journal) bool {
	if !long.Complete() || !short.Complete() {
		return false
	}
	if len(short.Records) > len(long.Records) {
		return false
	}
	for i := range short.Records {
		if short.Records[i] != long.Records[i] {
			return false
		}
	}
	return true
}
