package main

import (
	"math"
	"sort"
)

// sample is one completed operation: when it ended, in nanoseconds since
// the window opened, and how long it took.
type sample struct{ end, dur int64 }

// durations extracts the sorted latencies of a sample set.
func durations(s []sample) []float64 {
	out := make([]float64, len(s))
	for i, x := range s {
		out[i] = float64(x.dur)
	}
	sort.Float64s(out)
	return out
}

// quantile returns the q-th quantile of sorted values by linear
// interpolation between closest ranks; 0 for an empty set.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (pos-float64(lo))*(sorted[hi]-sorted[lo])
}

func median(vals []float64) float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// quartiles returns the first quartile, median and third quartile of vals
// by the exclusive method Python's statistics.quantiles(values, n=4) uses,
// so a spread computed here matches the one the acceptance check computes.
func quartiles(vals []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4
		j := int(pos)
		d := pos - float64(j)
		j = min(max(j, 1), n-1)
		return s[j-1] + d*(s[j]-s[j-1])
	}
	return at(1), at(2), at(3)
}

// tail reports the highest percentile of a sorted latency set that still
// has at least ten samples beyond it (p99.9, else p99, else p90), with
// its label.
func tail(sorted []float64) (label string, v float64) {
	n := float64(len(sorted))
	for _, t := range []struct {
		label string
		q     float64
	}{{"p99.9", 0.999}, {"p99", 0.99}, {"p90", 0.90}} {
		if n*(1-t.q) >= 10 {
			return t.label, quantile(sorted, t.q)
		}
	}
	return "max", quantile(sorted, 1)
}

// blockRates counts the samples ending in each block of the window and
// returns one rate (per second) per block for which use(block) is true.
func blockRates(s []sample, blockLen int64, blocks int, use func(int) bool) []float64 {
	counts := make([]int, blocks)
	for _, x := range s {
		if b := int(x.end / blockLen); b >= 0 && b < blocks {
			counts[b]++
		}
	}
	var rates []float64
	for b, c := range counts {
		if use(b) {
			rates = append(rates, float64(c)/(float64(blockLen)/1e9))
		}
	}
	return rates
}
