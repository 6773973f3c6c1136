package main

import (
	"sort"
	"time"
)

// tailBeyond is how many samples must lie above a reported tail
// percentile: a tail read off fewer samples than this is noise.
const tailBeyond = 10

// sample is a set of timings with the order statistics the benchmark
// reports. Values are seconds.
type sample []float64

func secs(d time.Duration) float64 { return d.Seconds() }

func (s sample) sorted() []float64 {
	v := append([]float64(nil), s...)
	sort.Float64s(v)
	return v
}

// median is the middle value, or the mean of the two middle values for
// an even count; 0 for an empty sample.
func (s sample) median() float64 {
	v := s.sorted()
	n := len(v)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return v[n/2]
	default:
		return (v[n/2-1] + v[n/2]) / 2
	}
}

// tail returns the value at the highest percentile that still has at
// least tailBeyond samples strictly above it, that percentile, and the
// sample count. With too few samples for any such percentile it falls
// back to the median (percentile 50), so the tail never rests on a
// handful of points.
func (s sample) tail() (value, pct float64, n int) {
	v := s.sorted()
	n = len(v)
	if n <= tailBeyond {
		return s.median(), 50, n
	}
	rank := n - 1 - tailBeyond // 0-based; tailBeyond samples lie above it
	pct = 100 * float64(rank+1) / float64(n)
	if pct < 50 {
		return s.median(), 50, n
	}
	return v[rank], pct, n
}
