package model

import (
	"fmt"
	"sort"
	"strings"
)

// ProcessID identifies a process. Processes in a system of size n are
// numbered 0..n-1.
type ProcessID int

// Time is a logical instant of the discrete global clock of the paper's
// model. Processes cannot read it; it is used by failure patterns and
// recorded failure-detector histories.
type Time int64

// String implements fmt.Stringer.
func (p ProcessID) String() string { return fmt.Sprintf("p%d", int(p)) }

// ProcessSet is a finite set of process identifiers. The zero value is an
// empty, usable set once initialised through NewProcessSet or Add on a
// non-nil map; use NewProcessSet for a ready-to-use value.
type ProcessSet struct {
	members map[ProcessID]struct{}
}

// NewProcessSet returns a set containing the given processes.
func NewProcessSet(ps ...ProcessID) ProcessSet {
	s := ProcessSet{members: make(map[ProcessID]struct{}, len(ps))}
	for _, p := range ps {
		s.members[p] = struct{}{}
	}
	return s
}

// NewProcessSetCap returns an empty set with room for n members, for callers
// that know the eventual size and want to avoid incremental map growth.
func NewProcessSetCap(n int) ProcessSet {
	return ProcessSet{members: make(map[ProcessID]struct{}, n)}
}

// AllProcesses returns the set {0, ..., n-1}.
func AllProcesses(n int) ProcessSet {
	s := ProcessSet{members: make(map[ProcessID]struct{}, n)}
	for i := 0; i < n; i++ {
		s.members[ProcessID(i)] = struct{}{}
	}
	return s
}

func (s *ProcessSet) ensure() {
	if s.members == nil {
		s.members = make(map[ProcessID]struct{})
	}
}

// Add inserts p into the set.
func (s *ProcessSet) Add(p ProcessID) {
	s.ensure()
	s.members[p] = struct{}{}
}

// Clear removes every member, keeping the allocated capacity for reuse.
func (s *ProcessSet) Clear() {
	clear(s.members)
}

// Remove deletes p from the set; it is a no-op if p is absent.
func (s *ProcessSet) Remove(p ProcessID) {
	if s.members == nil {
		return
	}
	delete(s.members, p)
}

// Contains reports whether p is a member.
func (s ProcessSet) Contains(p ProcessID) bool {
	_, ok := s.members[p]
	return ok
}

// Len returns the number of members.
func (s ProcessSet) Len() int { return len(s.members) }

// IsEmpty reports whether the set has no members.
func (s ProcessSet) IsEmpty() bool { return len(s.members) == 0 }

// Clone returns an independent copy of the set.
func (s ProcessSet) Clone() ProcessSet {
	c := ProcessSet{members: make(map[ProcessID]struct{}, len(s.members))}
	for p := range s.members {
		c.members[p] = struct{}{}
	}
	return c
}

// Union returns a new set containing the members of s and t.
func (s ProcessSet) Union(t ProcessSet) ProcessSet {
	u := s.Clone()
	for p := range t.members {
		u.members[p] = struct{}{}
	}
	return u
}

// Intersect returns a new set containing the members common to s and t.
func (s ProcessSet) Intersect(t ProcessSet) ProcessSet {
	u := NewProcessSet()
	for p := range s.members {
		if t.Contains(p) {
			u.members[p] = struct{}{}
		}
	}
	return u
}

// Minus returns a new set containing the members of s that are not in t.
func (s ProcessSet) Minus(t ProcessSet) ProcessSet {
	u := NewProcessSet()
	for p := range s.members {
		if !t.Contains(p) {
			u.members[p] = struct{}{}
		}
	}
	return u
}

// Intersects reports whether s and t share at least one member.
func (s ProcessSet) Intersects(t ProcessSet) bool {
	small, large := s, t
	if large.Len() < small.Len() {
		small, large = large, small
	}
	for p := range small.members {
		if large.Contains(p) {
			return true
		}
	}
	return false
}

// SubsetOf reports whether every member of s belongs to t.
func (s ProcessSet) SubsetOf(t ProcessSet) bool {
	for p := range s.members {
		if !t.Contains(p) {
			return false
		}
	}
	return true
}

// Equal reports whether s and t have exactly the same members.
func (s ProcessSet) Equal(t ProcessSet) bool {
	return s.Len() == t.Len() && s.SubsetOf(t)
}

// Slice returns the members in ascending order.
func (s ProcessSet) Slice() []ProcessID {
	out := make([]ProcessID, 0, len(s.members))
	for p := range s.members {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Min returns the smallest member and true, or 0 and false if the set is empty.
func (s ProcessSet) Min() (ProcessID, bool) {
	if s.IsEmpty() {
		return 0, false
	}
	first := true
	var min ProcessID
	for p := range s.members {
		if first || p < min {
			min = p
			first = false
		}
	}
	return min, true
}

// String implements fmt.Stringer, e.g. "{p0,p2,p3}".
func (s ProcessSet) String() string {
	ids := s.Slice()
	parts := make([]string, len(ids))
	for i, p := range ids {
		parts[i] = p.String()
	}
	return "{" + strings.Join(parts, ",") + "}"
}
