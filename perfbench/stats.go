package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks; xs need not be sorted and is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// perOp returns the mean wall time per operation in nanoseconds.
func perOp(d time.Duration, n int) float64 {
	if n == 0 {
		return 0
	}
	return float64(d.Nanoseconds()) / float64(n)
}

// medianOf3 times f three times and returns the median duration, so one
// preempted replay does not set a per-layer figure.
func medianOf3(f func()) time.Duration {
	var ds []float64
	for i := 0; i < 3; i++ {
		t := time.Now()
		f()
		ds = append(ds, float64(time.Since(t)))
	}
	return time.Duration(median(ds))
}
