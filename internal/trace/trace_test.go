package trace

import (
	"sync"
	"testing"
)

func TestMetricsBasics(t *testing.T) {
	m := NewMetrics()
	m.Inc("msgs")
	m.Add("msgs", 4)
	m.Add("rounds", 2)
	if got := m.Get("msgs"); got != 5 {
		t.Fatalf("Get(msgs) = %d", got)
	}
	if got := m.Get("missing"); got != 0 {
		t.Fatalf("Get(missing) = %d", got)
	}
	snap := m.Snapshot()
	if snap["rounds"] != 2 || len(snap) != 2 {
		t.Fatalf("Snapshot = %v", snap)
	}
	if got := m.String(); got != "msgs=5 rounds=2" {
		t.Fatalf("String = %q", got)
	}
}

func TestMetricsZeroValueAndConcurrency(t *testing.T) {
	var m Metrics
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				m.Inc("n")
			}
		}()
	}
	wg.Wait()
	if got := m.Get("n"); got != 800 {
		t.Fatalf("Get = %d, want 800", got)
	}
}
