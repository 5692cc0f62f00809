package main

import (
	"math"
	"sort"
	"time"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quantile returns the q-quantile (0 ≤ q ≤ 1) of xs by linear interpolation
// between order statistics; 0 for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailPercentile returns the p-th percentile (0 < p < 1) of xs when at least
// ten samples lie beyond it, and otherwise the highest order statistic that
// still has ten samples beyond it — never below the median. A p99 of 300
// samples would be set by three of them; the rule keeps every reported tail
// a statement about at least ten.
func tailPercentile(xs []float64, p float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := sorted(xs)
	idx := int(math.Ceil(p*float64(n))) - 1
	if limit := n - 11; idx > limit {
		idx = limit
	}
	if mid := n / 2; idx < mid {
		idx = mid
	}
	return s[idx]
}

// timeWeightedQuantile returns the q-quantile of closed-loop latencies over
// arrival instants instead of over completed requests: each latency weighs
// as much as the time it occupied, which is the chance that a request
// arriving at a random instant would have met it. A closed loop sends its
// next request only after the previous one returns, so one request stalled
// for two seconds among two hundred fast ones is 0.5% of the requests but
// 90% of the time; the plain median would call that service fast.
func timeWeightedQuantile(latencies []float64, q float64) float64 {
	s := sorted(latencies)
	target, acc := q*sum(s), 0.0
	for _, x := range s {
		acc += x
		if acc >= target {
			return x
		}
	}
	return 0
}

// quiet estimates what a repeated timing takes when the host is quiet: the
// first quartile of the repeats. Host noise in the sandbox only ever adds
// time, in bursts and in phases that last minutes; on recorded series the
// first quartile of a window moved a half to a third as much between windows
// as its median did, and the minimum moved more than either, because now and
// then a repeat is faster than it should be (README, "Estimators").
func quiet(xs []float64) float64 { return quantile(xs, 0.25) }

// summary is the spread every sampled metric is printed with.
type summary struct {
	N      int     `json:"n"`
	Q1     float64 `json:"q1"`
	Median float64 `json:"median"`
	Q3     float64 `json:"q3"`
}

func summarize(xs []float64) *summary {
	if len(xs) == 0 {
		return nil
	}
	return &summary{N: len(xs), Q1: quantile(xs, 0.25), Median: median(xs), Q3: quantile(xs, 0.75)}
}

// spread is the interquartile distance as a share of the median, the noise
// figure the bounds are judged against. The quartiles are those of Python's
// statistics.quantiles(xs, n=4) (the k-th at position k(n+1)/4, clamped),
// because that is what the acceptance check computes; they lie further apart
// than quantile's.
func spread(xs []float64) float64 {
	n := len(xs)
	m := median(xs)
	if n < 2 || m == 0 {
		return 0
	}
	s := sorted(xs)
	quartile := func(k int) float64 {
		j := min(max(k*(n+1)/4, 1), n-1)
		delta := float64(k*(n+1)-4*j) / 4
		return s[j-1] + (s[j]-s[j-1])*delta
	}
	return math.Abs((quartile(3) - quartile(1)) / m)
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func seconds(d time.Duration) float64 { return d.Seconds() }
func millis(d time.Duration) float64  { return float64(d) / float64(time.Millisecond) }
func micros(d time.Duration) float64  { return float64(d) / float64(time.Microsecond) }
