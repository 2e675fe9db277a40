package main

import (
	"math"
	"sort"
)

// quartiles returns the first, second and third quartile of values the
// way Python's statistics.quantiles(values, n=4) does (the "exclusive"
// method), because that is what the driver computes over a set of runs;
// using one definition everywhere keeps the harness's own spread
// figures comparable with the driver's. The one departure: with fewer
// than three values Python extrapolates beyond the data, which is no
// use as an estimator, so a quartile here never leaves [min, max]. One
// value is its own quartiles; an empty slice gives NaNs.
func quartiles(values []float64) (q1, q2, q3 float64) {
	n := len(values)
	if n == 0 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		if delta < 0 {
			delta = 0
		}
		if delta > 4 {
			delta = 4
		}
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(2), at(3)
}

// lowerQuartile is the estimator every rate in this benchmark uses:
// with the programs confined to one processor (affinity.go) what is
// left of the host's interference is occasional and only ever adds
// time, so the low side of a set of identical repetitions is steadier
// than its middle (README, "Why lower quartile").
func lowerQuartile(values []float64) float64 {
	q1, _, _ := quartiles(values)
	return q1
}

func median(values []float64) float64 {
	_, q2, _ := quartiles(values)
	return q2
}

// iqrShare is the distance between the first and third quartile as a
// share of the median — the spread figure the driver bounds.
func iqrShare(values []float64) float64 {
	q1, q2, q3 := quartiles(values)
	if q2 == 0 {
		return math.NaN()
	}
	return (q3 - q1) / math.Abs(q2)
}

// percentile returns the q-quantile (0..1) of values by nearest rank.
func percentile(values []float64, q float64) float64 {
	if len(values) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

// worsening is how much worse `now` is than `base` as a share of base,
// in the metric's own direction; negative means better.
func worsening(base, now float64, better string) float64 {
	if base == 0 {
		return math.NaN()
	}
	d := (now - base) / math.Abs(base)
	if better == "higher" {
		return -d
	}
	return d
}
