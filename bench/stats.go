package main

import (
	"math"
	"sort"
	"time"
)

// sorted returns an ascending copy of v.
func sorted(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// median returns the middle value of v (mean of the two middle values
// for an even count), 0 for an empty slice.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := sorted(v)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// quartiles returns the three cut points of v exactly as Python's
// statistics.quantiles(v, n=4) does (the "exclusive" method), because
// that is how the benchmark contract measures run-to-run spread. It
// needs at least two values.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := sorted(v)
	m := len(s)
	if m < 2 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	cut := func(i int) float64 {
		j := i * (m + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > m-1 {
			j = m - 1
		}
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// percentile returns the nearest-rank p-quantile (0 < p <= 1) of v.
func percentile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := sorted(v)
	i := int(math.Ceil(p*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

// tailSteps are the percentiles a latency tail is reported at.
var tailSteps = []float64{0.999, 0.99, 0.95, 0.90, 0.75, 0.50}

// supportedTail returns the highest percentile of tailSteps that still
// has at least ten of n samples beyond it, 0 when none has. A tail read
// off fewer samples is the position of a handful of outliers.
func supportedTail(n int) float64 {
	for _, p := range tailSteps {
		if float64(n)*(1-p) >= 10 {
			return p
		}
	}
	return 0
}

// interval is a half-open stretch of the run's clock.
type interval struct{ start, end time.Duration }

// covered returns the length of the union of ivs clipped to within.
// Children may nest, overlap (two concurrent streams) or sit side by
// side; each instant of the parent counts once.
func covered(within interval, ivs []interval) time.Duration {
	clipped := make([]interval, 0, len(ivs))
	for _, iv := range ivs {
		if iv.start < within.start {
			iv.start = within.start
		}
		if iv.end > within.end {
			iv.end = within.end
		}
		if iv.end > iv.start {
			clipped = append(clipped, iv)
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].start < clipped[j].start })
	var total time.Duration
	var cur interval
	for i, iv := range clipped {
		switch {
		case i == 0:
			cur = iv
		case iv.start <= cur.end:
			if iv.end > cur.end {
				cur.end = iv.end
			}
		default:
			total += cur.end - cur.start
			cur = iv
		}
	}
	return total + cur.end - cur.start
}

// selfTimes returns each span's self time: its duration minus the part
// of that interval its direct children cover. Indexed like spans.
func selfTimes(spans []span) []time.Duration {
	children := map[int][]interval{}
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], interval{s.Start, s.End})
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		out[i] = s.End - s.Start - covered(interval{s.Start, s.End}, children[s.ID])
	}
	return out
}
