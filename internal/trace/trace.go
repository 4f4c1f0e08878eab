// Package trace holds the network's message counters: monotonic named
// counters (messages sent, delivered and dropped, per instance, crashes)
// that internal/net increments and scenario results snapshot.
package trace

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is an interned handle to one named counter: a bare atomic, so hot
// paths that intern a handle once pay neither a lock nor a map lookup per
// increment.
type Counter struct {
	n atomic.Int64
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.n.Add(1) }

// Add increments the counter by d.
func (c *Counter) Add(d int64) { c.n.Add(d) }

// Get returns the counter's current value.
func (c *Counter) Get() int64 { return c.n.Load() }

// Metrics is a set of named monotonic counters, sharded into one atomic per
// key. The zero value is ready to use. Metrics is safe for concurrent use.
//
// The registry is a read-locked plain map rather than a sync.Map: interning a
// handle neither boxes the string key into an interface nor pays the trie
// initialisation a fresh sync.Map performs, so creating many short-lived
// Metrics (one per run of a sweep) stays cheap.
type Metrics struct {
	mu       sync.RWMutex
	counters map[string]*Counter
}

// NewMetrics returns an empty metrics set.
func NewMetrics() *Metrics { return &Metrics{} }

// Counter interns and returns the handle for the named counter. The handle is
// stable for the lifetime of the Metrics; hot paths should intern once and
// increment the handle.
func (m *Metrics) Counter(name string) *Counter {
	m.mu.RLock()
	c := m.counters[name]
	m.mu.RUnlock()
	if c != nil {
		return c
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if c = m.counters[name]; c == nil {
		if m.counters == nil {
			// Sized for the usual complement of protocol counters, so interning
			// them into a fresh Metrics does not grow the map incrementally.
			m.counters = make(map[string]*Counter, 16)
		}
		c = new(Counter)
		m.counters[name] = c
	}
	return c
}

// Add increments the named counter by n.
func (m *Metrics) Add(name string, n int64) { m.Counter(name).Add(n) }

// Inc increments the named counter by one.
func (m *Metrics) Inc(name string) { m.Add(name, 1) }

// Get returns the current value of the named counter (zero if never touched).
func (m *Metrics) Get(name string) int64 {
	m.mu.RLock()
	c := m.counters[name]
	m.mu.RUnlock()
	if c == nil {
		return 0
	}
	return c.Get()
}

// Snapshot returns a copy of all counters.
func (m *Metrics) Snapshot() map[string]int64 {
	m.mu.RLock()
	defer m.mu.RUnlock()
	out := make(map[string]int64, len(m.counters))
	for k, c := range m.counters {
		out[k] = c.Get()
	}
	return out
}

// String renders the counters sorted by name, e.g. "msgs.sent=12 rounds=3".
func (m *Metrics) String() string {
	snap := m.Snapshot()
	keys := make([]string, 0, len(snap))
	for k := range snap {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = fmt.Sprintf("%s=%d", k, snap[k])
	}
	return strings.Join(parts, " ")
}
