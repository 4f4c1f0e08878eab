package explore

import (
	"time"

	"weakestfd/internal/model"
)

// Rand is the exploration's deterministic random stream: a splitmix64
// generator implemented here so that an exploration's mutation choices are a
// pure function of its seed forever — independent of Go version, platform
// and the standard library's generator evolution. Every consumer (parent
// selection, mutator selection, each mutator's own draws) pulls from one
// sequential stream, which is what makes the whole run replayable from the
// seed alone.
type Rand struct {
	state uint64
}

// newRand seeds a stream. Distinct seeds give uncorrelated streams (the
// constant is the splitmix64 golden-gamma increment).
func newRand(seed int64) *Rand {
	return &Rand{state: uint64(seed) + 0x9E3779B97F4A7C15}
}

// Uint64 returns the next raw draw.
func (r *Rand) Uint64() uint64 {
	r.state += 0x9E3779B97F4A7C15
	z := r.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Intn returns a draw in [0, n); n must be positive.
func (r *Rand) Intn(n int) int {
	return int(r.Uint64() % uint64(n))
}

// Float64 returns a draw in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Pick returns an index drawn proportionally to the given non-negative
// weights (an all-zero slice falls back to uniform).
func (r *Rand) Pick(weights []float64) int {
	total := 0.0
	for _, w := range weights {
		total += w
	}
	if total <= 0 {
		return r.Intn(len(weights))
	}
	x := r.Float64() * total
	for i, w := range weights {
		x -= w
		if x < 0 {
			return i
		}
	}
	return len(weights) - 1
}

// quantum is the grain of every mutated duration: mutation draws land on a
// coarse lattice so that the novelty signature's buckets (and human eyes)
// see structure, not noise.
const quantum = 250 * time.Microsecond

// Quantized returns a duration drawn uniformly from {0, q, 2q, ..., max}
// rounded to the mutation quantum.
func (r *Rand) Quantized(max time.Duration) time.Duration {
	steps := int(max/quantum) + 1
	return time.Duration(r.Intn(steps)) * quantum
}

// Ticks returns a logical-tick value drawn from {0, 25, 50, ..., max}.
func (r *Rand) Ticks(max model.Time) model.Time {
	const grain = 25
	steps := int(max/grain) + 1
	return model.Time(r.Intn(steps) * grain)
}
