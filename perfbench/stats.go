package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the q-quantile (0 ≤ q ≤ 1) of xs by the nearest-rank
// method, and how many samples lie strictly above it. The count is what
// makes a high percentile honest: p99.9 of 26,208 cycles has 26 samples
// beyond it, p99.9 of 500 has none worth reporting.
func percentile(xs []float64, q float64) (v float64, beyond int) {
	if len(xs) == 0 {
		return math.NaN(), 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(q * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	v = s[rank-1]
	beyond = len(s) - sort.Search(len(s), func(i int) bool { return s[i] > v })
	return v, beyond
}

// median is the middle value of xs (the mean of the two middle values for
// an even count); NaN for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// progressPoint is the part of a core.ProgressEvent the cycle split needs.
type progressPoint struct {
	wall      time.Duration // since Run started
	postsSeen int           // cumulative
}

// cycleSplit holds every poll cycle's host time and the empty cycles'
// (no new post) separately.
type cycleSplit struct {
	all, empty []float64 // durations in µs
	emptyTotal time.Duration
	nonEmpty   int
}

// splitCycles turns cumulative Progress events, one per poll cycle, into
// per-cycle host times. The first cycle is timed from Run's start, so it
// also carries server start-up; a cycle is empty when the cumulative post
// count did not move.
func splitCycles(ev []progressPoint) cycleSplit {
	var s cycleSplit
	var prev progressPoint
	for _, e := range ev {
		d := e.wall - prev.wall
		us := float64(d) / float64(time.Microsecond)
		s.all = append(s.all, us)
		if e.postsSeen != prev.postsSeen {
			s.nonEmpty++
		} else {
			s.empty = append(s.empty, us)
			s.emptyTotal += d
		}
		prev = e
	}
	return s
}
