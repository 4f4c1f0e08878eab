package model

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// NeverCrashes is the crash time recorded for a process that is correct in a
// failure pattern. Any Time value compared against it is smaller.
const NeverCrashes = Time(1<<62 - 1)

// FailurePattern is the function F of the paper: F(t) is the set of processes
// that have crashed through time t. It is represented by the crash time of
// each process (NeverCrashes for correct processes). Crashed processes do not
// recover, so F(t) ⊆ F(t+1) by construction.
//
// A FailurePattern can be used in two modes:
//
//   - as a static description (a planned crash schedule handed to the
//     runtime before a run), or
//   - as a live record: the runtime calls Crash(p, t) when it kills a
//     process, and failure detectors backed by the oracle read CrashedAt.
//
// The type is safe for concurrent use.
type FailurePattern struct {
	mu      sync.RWMutex
	n       int
	crash   map[ProcessID]Time
	frozen  bool
	version uint64
}

// NewFailurePattern returns a failure pattern over n processes in which every
// process is (so far) correct.
func NewFailurePattern(n int) *FailurePattern {
	return &FailurePattern{n: n, crash: make(map[ProcessID]Time, n)}
}

// N returns the number of processes in the system.
func (f *FailurePattern) N() int { return f.n }

// Crash records that process p crashes at time t. If p already has an earlier
// crash time the earlier one is kept (a process crashes once). Crash panics if
// p is out of range or the pattern has been frozen.
func (f *FailurePattern) Crash(p ProcessID, t Time) {
	if int(p) < 0 || int(p) >= f.n {
		panic(fmt.Sprintf("model: crash of out-of-range process %v (n=%d)", p, f.n))
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.frozen {
		panic("model: Crash called on a frozen FailurePattern")
	}
	if old, ok := f.crash[p]; ok && old <= t {
		return
	}
	f.crash[p] = t
	f.version++
}

// Version returns a counter that changes whenever the pattern records a new
// (or earlier) crash. Detectors that derive values from the pattern can use
// it to cache across queries: a sample computed at version v over inputs that
// otherwise only depend on time stays valid while Version() == v.
func (f *FailurePattern) Version() uint64 {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return f.version
}

// Freeze marks the pattern immutable; later Crash calls panic. Tests freeze a
// planned pattern to guard against accidental mutation.
func (f *FailurePattern) Freeze() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.frozen = true
}

// CrashTime returns the crash time of p, or NeverCrashes if p is correct.
func (f *FailurePattern) CrashTime(p ProcessID) Time {
	f.mu.RLock()
	defer f.mu.RUnlock()
	if t, ok := f.crash[p]; ok {
		return t
	}
	return NeverCrashes
}

// CrashedAt reports whether p has crashed by time t (p ∈ F(t)).
func (f *FailurePattern) CrashedAt(p ProcessID, t Time) bool {
	return f.CrashTime(p) <= t
}

// CrashedBy returns F(t): the set of processes that have crashed through t.
func (f *FailurePattern) CrashedBy(t Time) ProcessSet {
	f.mu.RLock()
	defer f.mu.RUnlock()
	s := NewProcessSet()
	for p, ct := range f.crash {
		if ct <= t {
			s.Add(p)
		}
	}
	return s
}

// MinVisiblyAlive returns the lowest-id process whose crash (if any) is not
// yet visible at time now given the suspicion delay, and true; or (0, false)
// if every process's crash is visible. It takes the pattern lock once and
// allocates nothing, unlike building the full alive set just to take its
// minimum — the Ω oracle calls this on every sample.
func (f *FailurePattern) MinVisiblyAlive(now, delay Time) (ProcessID, bool) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	for i := 0; i < f.n; i++ {
		ct, crashed := f.crash[ProcessID(i)]
		if !crashed || ct+delay > now {
			return ProcessID(i), true
		}
	}
	return 0, false
}

// VisiblyAlive returns the set of processes whose crash (if any) is not yet
// visible at time now given the suspicion delay, together with the first time
// at which that set next changes given the crashes recorded so far
// (NeverCrashes if it never does). The expiry lets callers cache the set: it
// is valid for every query time in [now, next).
func (f *FailurePattern) VisiblyAlive(now, delay Time) (ProcessSet, Time) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	alive := NewProcessSetCap(f.n)
	next := NeverCrashes
	for i := 0; i < f.n; i++ {
		ct, crashed := f.crash[ProcessID(i)]
		if !crashed {
			alive.Add(ProcessID(i))
			continue
		}
		if visibleAt := ct + delay; visibleAt > now {
			alive.Add(ProcessID(i))
			if visibleAt < next {
				next = visibleAt
			}
		}
	}
	return alive, next
}

// Faulty returns faulty(F): every process with a recorded crash, regardless of
// time.
func (f *FailurePattern) Faulty() ProcessSet {
	f.mu.RLock()
	defer f.mu.RUnlock()
	s := NewProcessSet()
	for p := range f.crash {
		s.Add(p)
	}
	return s
}

// Correct returns correct(F) = Π − faulty(F).
func (f *FailurePattern) Correct() ProcessSet {
	return AllProcesses(f.n).Minus(f.Faulty())
}

// FirstCrashTime returns the earliest crash time in the pattern and true, or
// (0, false) if no process crashes.
func (f *FailurePattern) FirstCrashTime() (Time, bool) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	found := false
	var min Time
	for _, ct := range f.crash {
		if !found || ct < min {
			min = ct
			found = true
		}
	}
	return min, found
}

// FailureOccurredBy reports whether F(t) is non-empty.
func (f *FailurePattern) FailureOccurredBy(t Time) bool {
	first, ok := f.FirstCrashTime()
	return ok && first <= t
}

// NumFaulty returns |faulty(F)|.
func (f *FailurePattern) NumFaulty() int { return f.Faulty().Len() }

// Clone returns an independent (unfrozen) copy of the pattern.
func (f *FailurePattern) Clone() *FailurePattern {
	f.mu.RLock()
	defer f.mu.RUnlock()
	c := NewFailurePattern(f.n)
	for p, t := range f.crash {
		c.crash[p] = t
	}
	return c
}

// String renders the pattern as "n=5 crashes[p1@10 p3@20]".
func (f *FailurePattern) String() string {
	f.mu.RLock()
	defer f.mu.RUnlock()
	type ct struct {
		p ProcessID
		t Time
	}
	cts := make([]ct, 0, len(f.crash))
	for p, t := range f.crash {
		cts = append(cts, ct{p, t})
	}
	sort.Slice(cts, func(i, j int) bool { return cts[i].p < cts[j].p })
	parts := make([]string, len(cts))
	for i, c := range cts {
		parts[i] = fmt.Sprintf("%v@%d", c.p, c.t)
	}
	return fmt.Sprintf("n=%d crashes[%s]", f.n, strings.Join(parts, " "))
}
