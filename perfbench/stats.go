package main

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sort"
	"time"
)

// minTail is how many samples must lie beyond a reported percentile: a
// percentile with fewer samples past it is one or two unlucky sessions,
// not a property of the system.
const minTail = 10

// quantile returns the q-quantile of sorted samples by the nearest-rank
// rule (the smallest sample with at least q·n samples at or below it), so
// the value is always an observed latency, never an interpolation.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	k := rank(len(sorted), q) - 1
	if k < 0 {
		k = 0
	}
	if k >= len(sorted) {
		k = len(sorted) - 1
	}
	return sorted[k]
}

// rank is the 1-based nearest rank of the q-quantile of n samples. The
// epsilon keeps a product such as 0.999·10000 that lands a hair above an
// integer in floating point from skipping a rank.
func rank(n int, q float64) int { return int(math.Ceil(q*float64(n) - 1e-9)) }

// beyond is how many of n samples lie strictly past the q-quantile under
// the nearest-rank rule.
func beyond(n int, q float64) int { return n - rank(n, q) }

// supported reports whether the q-quantile of n samples has at least
// minTail samples beyond it.
func supported(n int, q float64) bool { return n > 0 && beyond(n, q) >= minTail }

// tailLadder is the set of percentiles the benchmark may report.
var tailLadder = []float64{0.5, 0.9, 0.99, 0.999, 0.9999}

// highestSupported returns the highest ladder percentile that n samples
// support, or 0 when not even the median has minTail samples beyond it.
func highestSupported(n int) float64 {
	best := 0.0
	for _, q := range tailLadder {
		if supported(n, q) {
			best = q
		}
	}
	return best
}

// tail returns the q-quantile of sorted samples, or an error when fewer than
// minTail samples lie beyond it.
func tail(sorted []float64, q float64) (float64, error) {
	if !supported(len(sorted), q) {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, need %d",
			100*q, len(sorted), max(0, beyond(len(sorted), q)), minTail)
	}
	return quantile(sorted, q), nil
}

// sample is one timed session: its latency and its ground-truth level.
type sample struct {
	ms float64
	lv int
}

// sortedCopy returns xs sorted ascending, leaving xs untouched.
func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// median of xs (the mean of the middle pair for an even count).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// ratio is num/den with den the stated base; a zero base gives 0, so a
// layer that did no work reads 0 rather than NaN.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// arrival is one scheduled discovery round of an open-loop run: when it is
// due, as an offset from the start of the timed window, and which subject
// it names (reduced modulo the live subject count when it fires).
type arrival struct {
	due  time.Duration
	pick uint32
}

// poissonSchedule draws the open-loop arrivals of one window: exponential
// gaps at rate rounds/s until window. The same seed gives the same
// schedule, so two runs offer the program identical inputs.
func poissonSchedule(seed uint64, rate float64, window time.Duration) []arrival {
	rng := rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15))
	var out []arrival
	var t time.Duration
	for {
		t += time.Duration(rng.ExpFloat64() / rate * float64(time.Second))
		if t >= window {
			return out
		}
		out = append(out, arrival{due: t, pick: rng.Uint32()})
	}
}
