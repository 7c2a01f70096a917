//navplint:exempt simsafe
//
// MeasureActiveRate is the one place the matrix substrate reads the wall
// clock: it exists to *measure* this host's kernel, so wall time is its
// subject matter, not a reproducibility leak. Nothing here runs inside a
// simulation — the sim consumes its output (a flop rate) as a
// machine-model parameter, never the clock itself.

package matrix

import "time"

// MeasureActiveRate measures the flop rate (flop/s) of the zero-value
// Kernel — the dispatcher's variant with its own blocking — at order n,
// best of reps multiplies (best-of filters scheduler noise). The modern
// machine model (machine.Modern) takes this as its CPURate, closing the
// loop between the measured kernel and the simulated tables.
func MeasureActiveRate(n, reps int) float64 {
	x, y := RandomPair(NewSeeded(2), n)
	flops := 2 * float64(n) * float64(n) * float64(n)
	best := 0.0
	for r := 0; r < reps; r++ {
		start := time.Now()
		Kernel{}.Mul(x, y)
		if s := time.Since(start).Seconds(); s > 0 {
			best = max(best, flops/s)
		}
	}
	return best
}
