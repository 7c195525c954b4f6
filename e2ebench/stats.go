package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the q-quantile (0 ≤ q ≤ 1) of xs by linear
// interpolation between closest ranks — the same rule as
// numpy.percentile's default. xs need not be sorted; it is not modified.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return sortedPercentile(s, q)
}

func sortedPercentile(s []float64, q float64) float64 {
	if len(s) == 1 {
		return s[0]
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

// beyond is the number of samples strictly past the q-quantile's rank: the
// count the tail rule needs to be at least minBeyond.
func beyond(n int, q float64) int {
	return int(math.Floor(float64(n)*(1-q) + 1e-9))
}

// minBeyond is the tail rule: a reported tail percentile keeps at least
// this many samples beyond it, or it is a guess about one or two requests.
const minBeyond = 10

// tailQuantile picks, from the candidates a report may use, the highest
// quantile that leaves at least minBeyond of n samples beyond it; 0.5 when
// none does.
func tailQuantile(n int) float64 {
	for _, q := range []float64{0.999, 0.99, 0.95, 0.9} {
		if beyond(n, q) >= minBeyond {
			return q
		}
	}
	return 0.5
}

// median of xs; NaN for none.
func median(xs []float64) float64 { return percentile(xs, 0.5) }

// ms renders a duration in milliseconds with all its digits.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// schedule is an open-loop send plan: request i is due at start + i·period,
// whatever happened to request i-1.
type schedule struct {
	start  time.Time
	period time.Duration
}

func newSchedule(start time.Time, ratePerSec float64) schedule {
	return schedule{start: start, period: time.Duration(float64(time.Second) / ratePerSec)}
}

// due is when request i should be sent.
func (s schedule) due(i int) time.Time { return s.start.Add(time.Duration(i) * s.period) }

// count is how many requests fall due strictly before end.
func (s schedule) count(end time.Time) int {
	span := end.Sub(s.start)
	if span <= 0 {
		return 0
	}
	return int((span + s.period - 1) / s.period)
}
