package main

import "testing"

func TestMedian(t *testing.T) {
	cases := []struct {
		in   sample
		want float64
	}{
		{nil, 0},
		{sample{3}, 3},
		{sample{5, 1, 3}, 3},
		{sample{4, 1, 3, 2}, 2.5},
	}
	for _, c := range cases {
		if got := c.in.median(); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	// Eleven or fewer samples: no percentile has ten above it, so the
	// tail falls back to the median.
	small := sample{9, 1, 2, 3, 4, 5, 6, 7, 8, 10}
	if v, pct, n := small.tail(); v != small.median() || pct != 50 || n != 10 {
		t.Errorf("tail of 10 samples = (%v, %v, %d), want the median at p50", v, pct, n)
	}
	// 40 samples 1..40: rank 29 (value 30) has exactly ten above it.
	var big sample
	for i := 40; i >= 1; i-- {
		big = append(big, float64(i))
	}
	v, pct, n := big.tail()
	if v != 30 || pct != 75 || n != 40 {
		t.Errorf("tail of 1..40 = (%v, %v, %d), want (30, 75, 40)", v, pct, n)
	}
	above := 0
	for _, x := range big {
		if x > v {
			above++
		}
	}
	if above != tailBeyond {
		t.Errorf("%d samples above the tail, want %d", above, tailBeyond)
	}
	// 15 samples: rank 4 is p33, below the median, so the median wins.
	var mid sample
	for i := 1; i <= 15; i++ {
		mid = append(mid, float64(i))
	}
	if v, pct, _ := mid.tail(); v != 8 || pct != 50 {
		t.Errorf("tail of 1..15 = (%v, %v), want the median 8 at p50", v, pct)
	}
}

// TestTailPercentilePerWorkload pins the percentile job_tail_s reports
// on each workload: it is read off a fixed number of jobs, so it is a
// per-workload constant.
func TestTailPercentilePerWorkload(t *testing.T) {
	want := map[string]struct {
		pct float64
		n   int
	}{
		"oneshot-close": {50, 10},
		"oneshot-noise": {58.333333333333336, 24},
		"coord-distant": {68.75, 32},
	}
	for _, w := range workloads {
		s := make(sample, w.tailJobs())
		for i := range s {
			s[i] = float64(i)
		}
		_, pct, n := s.tail()
		if got := want[w.name]; pct != got.pct || n != got.n {
			t.Errorf("%s: tail is p%v of %d jobs, want p%v of %d", w.name, pct, n, got.pct, got.n)
		}
	}
}
