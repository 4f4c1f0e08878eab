package journal

import (
	"fmt"
	"strings"

	"weakestfd/internal/net"
)

// Checker asserts a live run against a journal record-by-record,
// implementing net.TraceRecorder: scenario.Replay attaches it to the
// re-executed run, and every scheduler decision — which event was delivered,
// which task was granted, which task exited — is compared against the
// recorded one the moment it is made. The first mismatch is captured as a
// Divergence; subsequent records are ignored (everything after the first
// divergence is downstream noise).
type Checker struct {
	j    *Journal
	next int
	div  *Divergence
}

// NewChecker returns a checker over j, which must be complete
// (Journal.Replayable).
func NewChecker(j *Journal) *Checker {
	return &Checker{j: j}
}

// Record implements net.TraceRecorder.
func (c *Checker) Record(tr net.TraceRecord) {
	if c.div != nil {
		return
	}
	actual := Record(tr)
	if c.next >= len(c.j.Records) {
		c.div = &Divergence{Index: c.next, Actual: &actual,
			Reason: "the run produced a record past the journal's end"}
		return
	}
	if expected := c.j.Records[c.next]; actual != expected {
		c.div = &Divergence{Index: c.next, Expected: &expected, Actual: &actual,
			Reason: "the run's record differs from the journal's"}
		return
	}
	c.next++
}

// Finish returns the divergence, if any, after the run completed: either the
// first mismatched record, or — when the run ended with journal records
// still unconsumed — a divergence at the first unconsumed record.
func (c *Checker) Finish() *Divergence {
	if c.div == nil && c.next < len(c.j.Records) {
		expected := c.j.Records[c.next]
		c.div = &Divergence{Index: c.next, Expected: &expected,
			Reason: fmt.Sprintf("the run ended after %d records; the journal holds %d more", c.next, len(c.j.Records)-c.next)}
	}
	return c.div
}

// Matched is how many records matched before the divergence (or all of them).
func (c *Checker) Matched() int { return c.next }

// Divergence pins the first point where a replayed run departed from its
// journal.
type Divergence struct {
	// Index is the stream index of the first mismatched record.
	Index int
	// Expected is the journal's record at Index; nil when the run overran
	// the journal's end.
	Expected *Record
	// Actual is the run's record at Index; nil when the run ended early.
	Actual *Record
	// Reason classifies the mismatch.
	Reason string
}

// Error implements error, so a divergence can travel as one.
func (d *Divergence) Error() string {
	return fmt.Sprintf("replay diverged at record %d: %s", d.Index, d.Reason)
}

// Report renders the divergence with a surrounding window of journal
// context: the record index, expected vs actual, and up to window matching
// records on each side — enough to see what the schedule was doing when it
// forked.
func (d *Divergence) Report(j *Journal, window int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "replay diverged at record %d (%s)\n", d.Index, d.Reason)
	if d.Expected != nil {
		fmt.Fprintf(&b, "  expected: %s\n", d.Expected)
	} else {
		fmt.Fprintf(&b, "  expected: <end of journal after %d records>\n", len(j.Records))
	}
	if d.Actual != nil {
		fmt.Fprintf(&b, "  actual:   %s\n", d.Actual)
	} else {
		fmt.Fprintf(&b, "  actual:   <run ended>\n")
	}
	if window <= 0 {
		return b.String()
	}
	lo := d.Index - window
	if lo < 0 {
		lo = 0
	}
	hi := d.Index + window + 1
	if hi > len(j.Records) {
		hi = len(j.Records)
	}
	if lo < hi {
		fmt.Fprintf(&b, "  journal context (records %d..%d):\n", lo, hi-1)
		for i := lo; i < hi; i++ {
			marker := "   "
			if i == d.Index {
				marker = ">>>"
			}
			fmt.Fprintf(&b, "  %s %6d  %s\n", marker, i, j.Records[i])
		}
	}
	return b.String()
}
