//go:build linux

package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of v.
func sorted(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// percentile interpolates the q-quantile (0..1) of an ascending slice; 0
// when empty.
func percentile(asc []float64, q float64) float64 {
	if len(asc) == 0 {
		return 0
	}
	pos := q * float64(len(asc)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	frac := pos - float64(lo)
	return asc[lo]*(1-frac) + asc[hi]*frac
}

func median(v []float64) float64 { return percentile(sorted(v), 0.5) }

// cv is the coefficient of variation (population standard deviation over
// the mean) in percent; 0 when the mean is 0.
func cv(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var sum float64
	for _, x := range v {
		sum += x
	}
	mean := sum / float64(len(v))
	if mean == 0 {
		return 0
	}
	var ss float64
	for _, x := range v {
		ss += (x - mean) * (x - mean)
	}
	return 100 * math.Sqrt(ss/float64(len(v))) / mean
}

// summary is the spread of one metric over repeated runs.
type summary struct {
	N                        int
	Median, Q1, Q3, Min, Max float64
}

// summarize computes the median, range and quartiles of v. The quartiles
// follow Python's statistics.quantiles(v, n=4) (the exclusive method), the
// rule the pipeline applies to this benchmark's runs, so the spread
// printed here is the spread it will see.
func summarize(v []float64) summary {
	asc := sorted(v)
	s := summary{N: len(asc)}
	if len(asc) == 0 {
		return s
	}
	s.Min, s.Max, s.Median = asc[0], asc[len(asc)-1], percentile(asc, 0.5)
	s.Q1, s.Q3 = s.Median, s.Median
	if len(asc) < 2 {
		return s
	}
	quart := func(i int) float64 {
		m := len(asc) + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > len(asc)-1 {
			j = len(asc) - 1
		}
		delta := i*m - j*4
		return (asc[j-1]*float64(4-delta) + asc[j]*float64(delta)) / 4
	}
	s.Q1, s.Q3 = quart(1), quart(3)
	return s
}

// iqrShare is the distance between the quartiles as a share of the median.
func (s summary) iqrShare() float64 {
	if s.Median == 0 {
		return 0
	}
	return (s.Q3 - s.Q1) / math.Abs(s.Median)
}

// rangeShare is max−min as a share of the median.
func (s summary) rangeShare() float64 {
	if s.Median == 0 {
		return 0
	}
	return (s.Max - s.Min) / math.Abs(s.Median)
}
