package probe

import (
	"weakestfd/internal/model"
	"weakestfd/internal/net"
)

// Analyzer folds the step scheduler's record stream into StreamProbes,
// implementing net.TraceRecorder. It rides the dispatcher-serialized recorder
// tee beside the trace digest (and any journal capture), so it needs no
// locking, and Record does bounded arithmetic plus amortized slice growth —
// nothing that blocks the scheduler's critical path.
//
// The fold is pure: the same record sequence always produces the same
// StreamProbes, which is how replay -stats recomputes a run's probes
// offline from its journal and asserts byte equality with the live capture.
type Analyzer struct {
	s StreamProbes

	lastAt    int64 // At of the last delivered event
	haveLast  bool
	lastCrash int64 // At of the latest crash event
	haveCrash bool

	perProc []ProcessProbes // dense by process id; compacted by Finish
}

// NewAnalyzer returns an analyzer expecting roughly n processes (the
// per-process vector is pre-sized; it still grows if ids exceed it).
func NewAnalyzer(n int) *Analyzer {
	if n < 0 {
		n = 0
	}
	return &Analyzer{perProc: make([]ProcessProbes, n)}
}

// proc returns the per-process slot for id, growing the vector on demand.
func (a *Analyzer) proc(id uint64) *ProcessProbes {
	for uint64(len(a.perProc)) <= id {
		a.perProc = append(a.perProc, ProcessProbes{})
	}
	return &a.perProc[id]
}

// Record implements net.TraceRecorder.
func (a *Analyzer) Record(r net.TraceRecord) {
	a.s.Records++
	switch r.Op {
	case net.TraceOpEvent:
		a.s.Events++
		if a.haveLast {
			a.s.QuiescenceGap.Observe(r.At - a.lastAt)
		}
		a.lastAt, a.haveLast = r.At, true
		switch r.Kind {
		case net.TraceKindMessage:
			a.s.Messages++
			a.s.MessageDelay.Observe(r.At - r.SentAt)
			a.proc(r.To).Deliveries++
			a.proc(r.From).Sends++
		case net.TraceKindTimer:
			a.s.Timers++
		case net.TraceKindCrash:
			a.s.Crashes++
			a.lastCrash, a.haveCrash = r.At, true
			a.s.CrashedProcs = append(a.s.CrashedProcs, r.To)
		}
	case net.TraceOpGrant:
		a.s.Grants++
		a.proc(r.Proc).Grants++
	case net.TraceOpExit:
		a.s.Exits++
		if r.Group {
			// A group task's clean exit is a protocol runner's decision
			// point. Its virtual time is the At of the last delivered event:
			// the dispatcher records the exit before it pops anything else,
			// so the clock has not moved since that delivery.
			a.s.Decisions++
			at := int64(0)
			if a.haveLast {
				at = a.lastAt
			}
			a.s.DecisionLatency.Observe(at)
			a.s.DecisionDepth.Observe(a.s.Events)
			if a.haveCrash {
				a.s.CrashToDecision.Observe(at - a.lastCrash)
			}
		}
	}
}

// Finish returns the fold, compacting the per-process vector (active
// processes only, in id order). The analyzer is spent afterwards.
func (a *Analyzer) Finish() StreamProbes {
	for id := range a.perProc {
		p := a.perProc[id]
		if p.Grants == 0 && p.Deliveries == 0 && p.Sends == 0 {
			continue
		}
		p.Proc = uint64(id)
		a.s.PerProcess = append(a.s.PerProcess, p)
	}
	a.perProc = nil
	return a.s
}

// DetectionFrom joins a run's crash events against its retained suspect
// history: for each process in crashed (the stream's CrashedProcs — crashes
// the trace actually delivered, which keeps the join on the deterministic
// side of the trace boundary even if the live pattern gains crashes
// afterwards), the first stable suspicion — the earliest retained sample
// (from any process other than the crashed one; a process never suspects
// itself) containing the crashed process after which no later retained
// sample from another process omits it. Latency is detection time minus
// crash time in logical ticks, clamped at 0 when a persistent false
// suspicion predates the crash.
//
// The join is deterministic on the trace tier: detector queries are
// serialized by the step scheduler, so the sample stream — including which
// samples a bounded history ring drops — is a pure function of
// (seed, config). A dropped prefix can only delay or miss a detection,
// never invent one, and does so identically across runs.
func DetectionFrom(pattern *model.FailurePattern, crashed []uint64, samples []model.Sample) *DetectionProbes {
	d := &DetectionProbes{}
	if pattern == nil {
		return d
	}
	for _, c := range crashed {
		q := model.ProcessID(c)
		crashAt := pattern.CrashTime(q)
		if crashAt == model.NeverCrashes {
			continue
		}
		d.Crashes++
		// Walk backwards to the last sample that omits q; the first stable
		// suspicion is the earliest containing sample after it.
		lastOmit := -1
		for i := len(samples) - 1; i >= 0; i-- {
			s := samples[i]
			if s.Process == q {
				continue
			}
			set, isSet := s.Value.(model.ProcessSet)
			if !isSet {
				continue
			}
			if !set.Contains(q) {
				lastOmit = i
				break
			}
		}
		detected := false
		for i := lastOmit + 1; i < len(samples); i++ {
			s := samples[i]
			if s.Process == q {
				continue
			}
			set, isSet := s.Value.(model.ProcessSet)
			if !isSet || !set.Contains(q) {
				continue
			}
			latency := int64(s.Time) - int64(crashAt)
			if latency < 0 {
				latency = 0
			}
			d.Detected++
			d.Latency.Observe(latency)
			detected = true
			break
		}
		if !detected {
			d.Missed++
		}
	}
	return d
}
