package fd

import (
	"weakestfd/internal/model"
)

// Bind connects a system-wide Source[V] to one process, satisfying
// Detector[V]: every Sample queries the source as that process. If Hist is
// non-nil every query is recorded (with the time from Clock) so the run can
// be validated with the specification checkers in internal/model. This one
// generic adapter replaces the former per-class BoundOmega / BoundSigma /
// BoundFS / BoundPsi zoo: process binding, history recording and any future
// perturbation live here exactly once, for every detector class.
//
// Bind is a value type and its query path performs no allocation of its own
// (TestBindSampleZeroAllocs pins this at 0 allocs/op); whatever the source
// allocates to produce V is the source's business.
type Bind[V any] struct {
	Proc  model.ProcessID
	Src   Source[V]
	Clock TimeSource
	Hist  *model.History
}

// Sample implements Detector[V].
func (b Bind[V]) Sample() V {
	v := b.Src.At(b.Proc)
	if b.Hist != nil {
		b.Hist.Record(b.Proc, b.Clock.Now(), v)
	}
	return v
}

// BindTo is the common no-history binding: src's module at process p.
func BindTo[V any](p model.ProcessID, src Source[V], clock TimeSource) Bind[V] {
	return Bind[V]{Proc: p, Src: src, Clock: clock}
}

// BindAll returns the no-history bindings of src at every process of an
// n-process system as one contiguous slice. Group constructors store
// &binds[p] in their Detector-typed fields: converting a pointer to an
// interface allocates nothing, so binding a whole group costs one allocation
// instead of one boxed Bind value per process.
func BindAll[V any](src Source[V], clock TimeSource, n int) []Bind[V] {
	binds := make([]Bind[V], n)
	for p := range binds {
		binds[p] = Bind[V]{Proc: model.ProcessID(p), Src: src, Clock: clock}
	}
	return binds
}

// Recorded wraps a system-wide source over n processes so that every query
// records the sampled value into hist: At(p) routes through one pre-built
// per-process Bind, so history recording stays implemented exactly once (in
// Bind) while callers keep the Source[V] shape. Give hist a ring cap
// (model.History.SetLimit) when the samples are informational — a sweep's
// novelty signal, not a checker input — so recording stays O(cap) per run.
func Recorded[V any](src Source[V], clock TimeSource, n int, hist *model.History) Source[V] {
	r := &recordedSource[V]{binds: make([]Bind[V], n)}
	for p := range r.binds {
		r.binds[p] = Bind[V]{Proc: model.ProcessID(p), Src: src, Clock: clock, Hist: hist}
	}
	return r
}

// recordedSource is the Source[V] view over the per-process Binds.
type recordedSource[V any] struct {
	binds []Bind[V]
}

// At implements Source[V].
func (r *recordedSource[V]) At(p model.ProcessID) V {
	return r.binds[int(p)].Sample()
}

var (
	_ Omega    = Bind[model.ProcessID]{}
	_ Sigma    = Bind[model.ProcessSet]{}
	_ FS       = Bind[model.FSValue]{}
	_ Psi      = Bind[model.PsiValue]{}
	_ Suspects = Bind[model.ProcessSet]{}
)
