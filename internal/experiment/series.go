package experiment

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// Point is one sample of a time series: T seconds since the series start,
// V the sampled value.
type Point struct {
	T float64
	V float64
}

// Series is an append-only time series behind the paper's figures. It is
// safe for concurrent use.
type Series struct {
	mu     sync.Mutex
	name   string
	points []Point
}

// NewSeries returns an empty named series.
func NewSeries(name string) *Series { return &Series{name: name} }

// Name reports the series name.
func (s *Series) Name() string { return s.name }

// Append adds a sample.
func (s *Series) Append(t, v float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.points = append(s.points, Point{T: t, V: v})
}

// Points returns a copy of the samples.
func (s *Series) Points() []Point {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Point(nil), s.points...)
}

// Len reports the number of samples.
func (s *Series) Len() int { return len(s.Points()) }

// Mean returns the average sample value, or 0 for an empty series.
func (s *Series) Mean() float64 {
	pts := s.Points()
	if len(pts) == 0 {
		return 0
	}
	var sum float64
	for _, p := range pts {
		sum += p.V
	}
	return sum / float64(len(pts))
}

// Min returns the smallest sample value, or 0 for an empty series.
func (s *Series) Min() float64 {
	pts := s.Points()
	if len(pts) == 0 {
		return 0
	}
	low := pts[0].V
	for _, p := range pts {
		low = min(low, p.V)
	}
	return low
}

// Slope estimates the average dV/dt over the samples at or after tMin.
func (s *Series) Slope(tMin float64) float64 {
	var first, last *Point
	pts := s.Points()
	for i := range pts {
		if pts[i].T < tMin {
			continue
		}
		if first == nil {
			first = &pts[i]
		}
		last = &pts[i]
	}
	if first == nil || last.T <= first.T {
		return 0
	}
	return (last.V - first.V) / (last.T - first.T)
}

// WriteCSV writes "t,<name>" rows to w.
func (s *Series) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "t_seconds,%s\n", s.name); err != nil {
		return err
	}
	for _, p := range s.Points() {
		if _, err := fmt.Fprintf(w, "%.3f,%.3f\n", p.T, p.V); err != nil {
			return err
		}
	}
	return nil
}

// RateSampler converts a monotonically increasing count into a rate
// series: each call to Sample appends (now, delta/elapsed).
type RateSampler struct {
	count  func() int64
	series *Series
	start  time.Time
	mu     sync.Mutex
	lastT  time.Time
	lastV  int64
}

// NewRateSampler returns a sampler of count into a new series with the
// given name, anchored at start.
func NewRateSampler(name string, count func() int64, start time.Time) *RateSampler {
	return &RateSampler{count: count, series: NewSeries(name), start: start, lastT: start}
}

// Sample records the rate since the previous sample.
func (r *RateSampler) Sample(now time.Time) {
	r.mu.Lock()
	defer r.mu.Unlock()
	v := r.count()
	dt := now.Sub(r.lastT).Seconds()
	if dt <= 0 {
		return
	}
	r.series.Append(now.Sub(r.start).Seconds(), float64(v-r.lastV)/dt)
	r.lastT, r.lastV = now, v
}

// Series returns the underlying rate series.
func (r *RateSampler) Series() *Series { return r.series }

// Histogram keeps every observed duration and reports exact order
// statistics. It is safe for concurrent use.
type Histogram struct {
	mu      sync.Mutex
	samples []time.Duration
	sorted  bool
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.samples = append(h.samples, d)
	h.sorted = false
}

// Count reports the number of observations.
func (h *Histogram) Count() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.samples)
}

// Mean reports the average duration, or 0 when empty.
func (h *Histogram) Mean() time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.samples) == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range h.samples {
		sum += d
	}
	return sum / time.Duration(len(h.samples))
}

// Quantile reports the q-quantile (0 <= q <= 1), or 0 when empty.
func (h *Histogram) Quantile(q float64) time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.samples) == 0 {
		return 0
	}
	if !h.sorted {
		sort.Slice(h.samples, func(i, j int) bool { return h.samples[i] < h.samples[j] })
		h.sorted = true
	}
	idx := min(max(int(q*float64(len(h.samples)-1)), 0), len(h.samples)-1)
	return h.samples[idx]
}

// Max reports the largest observation.
func (h *Histogram) Max() time.Duration { return h.Quantile(1) }
