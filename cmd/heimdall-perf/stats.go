package main

import (
	"slices"
	"sort"
)

// percentile returns the p-th percentile (0–100) of an ascending sample,
// interpolating linearly between the two nearest order statistics so the
// value carries more digits than the clock's granularity. An empty sample
// reads 0.
func percentile(sorted []int32, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	rank := p / 100 * float64(n-1)
	lo := int(rank)
	if lo >= n-1 {
		return float64(sorted[n-1])
	}
	frac := rank - float64(lo)
	return float64(sorted[lo]) + frac*float64(sorted[lo+1]-sorted[lo])
}

// p99 returns the 99th percentile of an ascending sample as the mean of the
// order statistics ranked from 98.5 % to 99.5 %. Where the distribution has a
// step near the 99th percentile — about 1 % of in-process decisions take
// twice the median — the plain percentile flips between the step's two sides
// from run to run (4.8 against 6.2 µs on one commit and seed); the mean over
// the neighbourhood moves with the step's position instead.
func p99(sorted []int32) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	lo, hi := int(0.985*float64(n)), int(0.995*float64(n))
	var sum float64
	for _, x := range sorted[lo : hi+1] {
		sum += float64(x)
	}
	return sum / float64(hi+1-lo)
}

// Which end of a metric is the good one.
const (
	lowest  = false
	highest = true
)

// quiet reduces a metric's per-slice values to the mean of its best quarter
// (at least one slice): the lowest for a cost, the highest for a rate. What
// disturbs a slice on a shared two-CPU guest — the host taking CPU time
// away, the scheduler parking a thread — only ever adds time, so the best
// slices are the ones closest to what the code costs; and the disturbance
// comes in bursts of seconds, which moved the median over a run's slices by
// ±15 % (p99) between runs of one commit where the best quarter moved by 5 %.
// A cost paid in every slice still shows in full.
func quiet(xs []float64, best bool) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if best == highest {
		slices.Reverse(s)
	}
	s = s[:max(1, len(s)/4)]
	var sum float64
	for _, x := range s {
		sum += x
	}
	return sum / float64(len(s))
}

// median returns the middle value of xs (mean of the middle two for an even
// count) without modifying it. The repeated set-ups are reported by it.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}
