//go:build !race

package fd

import (
	"testing"

	"weakestfd/internal/model"
)

// constOmega is a constant Ω source: the cheapest possible Source[V], so a
// query through it prices the generic Bind[V] path alone (process binding,
// nil-history check, interface dispatch).
type constOmega struct{}

func (constOmega) At(model.ProcessID) model.ProcessID { return 0 }

// bindSink keeps the sampled value observable so the query is not
// eliminated.
var bindSink model.ProcessID

// TestBindSampleZeroAllocs guards the per-query overhead every protocol pays
// on top of its source (without the race detector, whose instrumentation
// allocates): a query through the Detector[V] interface allocates nothing —
// the adapter is a value, the history check a nil test, and a ProcessID
// sample does not escape.
func TestBindSampleZeroAllocs(t *testing.T) {
	var det Omega = BindTo[model.ProcessID](1, constOmega{}, &fakeClock{})
	if allocs := testing.AllocsPerRun(1000, func() { bindSink = det.Sample() }); allocs != 0 {
		t.Fatalf("generic Bind query path allocates %.1f allocs/op, want 0", allocs)
	}
}
