package main

import "time"

// The host this benchmark runs on is shared, and its speed drifts by
// tens of percent over minutes as other tenants come and go: a drift no
// choice of estimator within one run can remove. So before every
// operation and set-up the benchmark times a fixed loop that uses no
// code of the repository, and divides the end-to-end times by the
// loop's slowdown against calRefS, raised to hostElasticity. The
// slowdown is a mean over the run, like the mean over inputs it scales,
// so a slow spell weighs in both by the share of the run it lasted. A
// change to the program moves the scaled times exactly as much as the
// raw ones; a slow spell of the host moves both the loop and the
// operations, and mostly cancels.

// calRefS is the loop's time on the reference host (a quiet 2.1 GHz
// Xeon vCPU, Go 1.24). It only sets the scale: the scaled times are the
// raw ones a host running the loop in calRefS would see.
const calRefS = 0.0125

// hostElasticity is how much faster than the loop's time the
// operations' time grows when the host slows, in log terms: a slow
// spell of the shared host hits the operations harder, likely because
// the loop stays in the core's caches and they do not. Fitted over ten
// runs a workload, in which the loop's time ranged over 10–15 ms, the
// slope of log wall time against log loop time was 1.35–1.63 on the
// runs with the widest range.
const hostElasticity = 1.5

// calRows is an array the size of a mem_d20 input.
var (
	calRows = calFill(10_000 * 20)
	calSink float64
)

func calFill(n int) []float64 {
	xs := make([]float64, n)
	x := uint64(1)
	for i := range xs {
		x = x*6364136223846793005 + 1442695040888963407
		xs[i] = float64(x>>11) / (1 << 53)
	}
	return xs
}

// calibrate times one run of the loop: the Manhattan distance from ten
// fixed rows of calRows to every row, in the shape of an assignment
// pass.
func calibrate() float64 {
	start := time.Now()
	const d = 20
	n := len(calRows) / d
	s := 0.0
	for m := 0; m < 10; m++ {
		med := calRows[(m*997%n)*d:][:d]
		for p := 0; p < n; p++ {
			row := calRows[p*d:][:d]
			acc := 0.0
			for j, v := range row {
				v -= med[j]
				if v < 0 {
					v = -v
				}
				acc += v
			}
			s += acc
		}
	}
	calSink += s
	return time.Since(start).Seconds()
}
