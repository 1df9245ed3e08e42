package experiment

import (
	"math"
	"strings"
	"testing"
	"time"
)

func TestSeries(t *testing.T) {
	s := NewSeries("x")
	if s.Name() != "x" || s.Mean() != 0 || s.Min() != 0 || s.Slope(0) != 0 {
		t.Error("empty series basics broken")
	}
	s.Append(0, 10)
	s.Append(1, 20)
	s.Append(2, 30)
	if s.Len() != 3 {
		t.Errorf("Len = %d", s.Len())
	}
	if got := s.Mean(); got != 20 {
		t.Errorf("Mean = %v", got)
	}
	if got := s.Min(); got != 10 {
		t.Errorf("Min = %v", got)
	}
	if got := s.Slope(1); got != 10 {
		t.Errorf("Slope(1) = %v", got)
	}
	pts := s.Points()
	pts[0].V = 999 // copy, not alias
	if s.Points()[0].V != 10 {
		t.Error("Points aliased internal state")
	}
	var sb strings.Builder
	if err := s.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != 4 || lines[0] != "t_seconds,x" {
		t.Errorf("CSV = %q", sb.String())
	}
}

func TestRateSampler(t *testing.T) {
	var c int64
	start := time.Now()
	r := NewRateSampler("rate", func() int64 { return c }, start)
	c += 100
	r.Sample(start.Add(time.Second))
	c += 50
	r.Sample(start.Add(2 * time.Second))
	r.Sample(start.Add(2 * time.Second)) // zero dt: dropped
	pts := r.Series().Points()
	if len(pts) != 2 {
		t.Fatalf("points = %v", pts)
	}
	if math.Abs(pts[0].V-100) > 1e-6 || math.Abs(pts[1].V-50) > 1e-6 {
		t.Errorf("rates = %v", pts)
	}
}

func TestHistogram(t *testing.T) {
	var h Histogram
	if h.Mean() != 0 || h.Quantile(0.5) != 0 {
		t.Error("empty histogram basics broken")
	}
	for i := 1; i <= 100; i++ {
		h.Observe(time.Duration(i) * time.Millisecond)
	}
	if h.Count() != 100 {
		t.Errorf("Count = %d", h.Count())
	}
	if got := h.Mean(); got != 50500*time.Microsecond {
		t.Errorf("Mean = %v", got)
	}
	med := h.Quantile(0.5)
	if med < 49*time.Millisecond || med > 52*time.Millisecond {
		t.Errorf("median = %v", med)
	}
	if got := h.Max(); got != 100*time.Millisecond {
		t.Errorf("Max = %v", got)
	}
	// Observing after a quantile read keeps working.
	h.Observe(200 * time.Millisecond)
	if got := h.Max(); got != 200*time.Millisecond {
		t.Errorf("Max after new observation = %v", got)
	}
}
