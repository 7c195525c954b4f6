package main

import (
	"math"
	"testing"
	"time"
)

func TestPercentileInterpolates(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3} // unsorted on purpose
	for _, c := range []struct{ q, want float64 }{
		{0, 1}, {0.5, 3}, {1, 5}, {0.25, 2}, {0.9, 4.6}, {0.99, 4.96},
	} {
		if got := percentile(xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("percentile(q=%g) = %g, want %g", c.q, got, c.want)
		}
	}
	if xs[0] != 5 {
		t.Error("percentile sorted its input in place")
	}
	if got := percentile([]float64{7}, 0.99); got != 7 {
		t.Errorf("one sample: got %g", got)
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Error("no samples must be NaN, not a number that looks measured")
	}
}

func TestTailRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{10000, 0.999}, // exactly 10 beyond p99.9
		{9999, 0.99},   // 9.999 beyond p99.9 is too few
		{1000, 0.99},
		{999, 0.95},
		{200, 0.95},
		{199, 0.9},
		{100, 0.9},
		{99, 0.5},
		{0, 0.5},
	} {
		if got := tailQuantile(c.n); got != c.want {
			t.Errorf("tailQuantile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
	if got := beyond(1000, 0.99); got != 10 {
		t.Errorf("beyond(1000, .99) = %d, want 10", got)
	}
}

// A window splits by completion time, and a median over its parts is not
// set by one slow part.
func TestPartsMedianOfMedians(t *testing.T) {
	w := window{elapsed: 3 * time.Second}
	for i := 0; i < 300; i++ {
		lat := float32(1)
		if i >= 150 {
			lat = 50 // the last half is slow
		}
		w.samples = append(w.samples, sample{end: float32(i) / 100, latency: lat, kind: kindIndex(kindUpdate), acked: true})
	}
	w.samples = append(w.samples, sample{end: 1, latency: 1e6, kind: kindIndex(kindQuery), paced: true})
	closed, writes := parts(w, 3)
	for k := range closed {
		if len(closed[k]) != 100 || len(writes[k]) != 100 {
			t.Fatalf("part %d: %d closed, %d writes; want 100 each", k, len(closed[k]), len(writes[k]))
		}
	}
	if got := medianOfMedians(closed); got != 25.5 {
		t.Errorf("median of part medians = %g ms, want 25.5 (the middle part's)", got)
	}
	if got := medianOfMedians([][]float64{closed[0], closed[0], closed[2]}); got != 1 {
		t.Errorf("median of part medians = %g ms, want 1", got)
	}
}

func TestSchedule(t *testing.T) {
	start := time.Unix(1000, 0)
	s := newSchedule(start, 20)
	if s.period != 50*time.Millisecond {
		t.Fatalf("period = %v, want 50ms", s.period)
	}
	if got := s.due(0); !got.Equal(start) {
		t.Errorf("due(0) = %v, want the start", got)
	}
	if got := s.due(7).Sub(start); got != 350*time.Millisecond {
		t.Errorf("due(7) = start+%v, want +350ms", got)
	}
	// Slots due strictly before the end: 0, 50, …, 950 ms.
	if got := s.count(start.Add(time.Second)); got != 20 {
		t.Errorf("count over 1s = %d, want 20", got)
	}
	if got := s.count(start.Add(time.Second + time.Nanosecond)); got != 21 {
		t.Errorf("count over 1s+1ns = %d, want 21", got)
	}
	if got := s.count(start); got != 0 {
		t.Errorf("count over nothing = %d", got)
	}
}
