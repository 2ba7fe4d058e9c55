package main

import (
	"bufio"
	"math"
	"sort"
	"strconv"
	"strings"
)

// minBeyond is how many samples must lie above a percentile before it
// is reported: a tail read off fewer samples is one slow call, not a
// distribution.
const minBeyond = 10

// smoothHalf is how many order statistics on each side of a rank a
// percentile averages in. A percentile of a few dozen circuits with
// uneven gaps between their times would otherwise jump from one circuit
// to the next on small timing changes.
const smoothHalf = 2

// Percentile returns the p-th percentile of xs (0 < p ≤ 100) at its
// nearest rank, smoothed over up to smoothHalf neighbours on each side,
// and the number of samples strictly above that rank.
func Percentile(xs []float64, p float64) (v float64, beyond int) {
	if len(xs) == 0 {
		return math.NaN(), 0
	}
	rank := int(math.Ceil(p * float64(len(xs)) / 100))
	rank = min(max(rank, 1), len(xs))
	return atRank(xs, rank), len(xs) - rank
}

// Tail returns the value at the highest percentile, up to p99, that
// has at least minBeyond samples above it, with that percentile and the
// count beyond. With too few samples for any such tail it returns the
// median.
func Tail(xs []float64) (p, v float64, beyond int) {
	n := len(xs)
	if n <= minBeyond {
		v, beyond = Percentile(xs, 50)
		return 50, v, beyond
	}
	rank := min(n-minBeyond, int(math.Ceil(0.99*float64(n))))
	return 100 * float64(rank) / float64(n), atRank(xs, rank), n - rank
}

// atRank is the mean of the order statistics of xs within smoothHalf
// ranks of rank (1-based), taking as many on each side.
func atRank(xs []float64, rank int) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := min(smoothHalf, rank-1, len(s)-rank)
	var sum float64
	for _, x := range s[rank-1-k : rank+k] {
		sum += x
	}
	return sum / float64(2*k+1)
}

// Median is the middle value, averaging the two middle ones for an even
// count.
func Median(xs []float64) float64 {
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

// Min is the smallest value.
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	m := xs[0]
	for _, x := range xs[1:] {
		m = min(m, x)
	}
	return m
}

// GeoMean is the geometric mean of positive values, so that small
// circuits weigh as much as large ones.
func GeoMean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// Sum adds xs.
func Sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// ParseMetrics reads a Prometheus text exposition into sample values
// keyed by the series as written (name plus any label set).
func ParseMetrics(text string) map[string]float64 {
	out := map[string]float64{}
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out
}

// MetricDeltas returns after−before for each series of after; a series
// absent before counts from zero.
func MetricDeltas(before, after map[string]float64) map[string]float64 {
	d := make(map[string]float64, len(after))
	for k, v := range after {
		d[k] = v - before[k]
	}
	return d
}
