package main

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// scrape is one parse of Prometheus text exposition: every sample line,
// keyed by its series (metric name plus label set, as written).
type scrape map[string]float64

// parseProm reads the text exposition format. Comment lines are skipped;
// timestamps after the value are not used by the registry and are
// ignored.
func parseProm(r io.Reader) (scrape, error) {
	out := scrape{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		// The value follows the series; label values may hold spaces,
		// so split after the closing brace when there is one.
		cut := strings.LastIndexByte(line, '}') + 1
		if cut == 0 {
			cut = strings.IndexByte(line, ' ')
		}
		if cut <= 0 || cut >= len(line) {
			return nil, fmt.Errorf("prom: malformed line %q", line)
		}
		fields := strings.Fields(line[cut:])
		if len(fields) == 0 {
			return nil, fmt.Errorf("prom: no value in %q", line)
		}
		v, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			return nil, fmt.Errorf("prom: value in %q: %w", line, err)
		}
		out[line[:cut]] = v
	}
	return out, sc.Err()
}

// family splits a series key into its metric name and label text.
func family(series string) (name, labels string) {
	if i := strings.IndexByte(series, '{'); i >= 0 {
		return series[:i], series[i+1 : len(series)-1]
	}
	return series, ""
}

// sum adds every series of the named family (all label sets).
func (s scrape) sum(name string) float64 {
	var t float64
	for k, v := range s {
		if n, _ := family(k); n == name {
			t += v
		}
	}
	return t
}

// max is the largest value over the family's series.
func (s scrape) max(name string) float64 {
	m := 0.0
	for k, v := range s {
		if n, _ := family(k); n == name {
			m = math.Max(m, v)
		}
	}
	return m
}

// delta is after minus before for the named counter family.
func delta(before, after scrape, name string) float64 {
	return after.sum(name) - before.sum(name)
}

// histDelta is the change of a histogram family between two scrapes,
// with buckets merged across label sets.
type histDelta struct {
	sum, count float64
	les        []float64 // ascending upper bounds, +Inf last
	cum        []float64 // cumulative counts per bound
}

func histogramDelta(before, after scrape, name string) histDelta {
	h := histDelta{
		sum:   after.sum(name+"_sum") - before.sum(name+"_sum"),
		count: after.sum(name+"_count") - before.sum(name+"_count"),
	}
	byLE := map[float64]float64{}
	for k, v := range after {
		if n, labels := family(k); n == name+"_bucket" {
			le, ok := leOf(labels)
			if ok {
				byLE[le] += v - before[k]
			}
		}
	}
	for le := range byLE {
		h.les = append(h.les, le)
	}
	sort.Float64s(h.les)
	for _, le := range h.les {
		h.cum = append(h.cum, byLE[le])
	}
	return h
}

func leOf(labels string) (float64, bool) {
	for _, kv := range strings.Split(labels, ",") {
		if v, ok := strings.CutPrefix(kv, "le="); ok {
			v = strings.Trim(v, `"`)
			if v == "+Inf" {
				return math.Inf(1), true
			}
			f, err := strconv.ParseFloat(v, 64)
			return f, err == nil
		}
	}
	return 0, false
}

func (h histDelta) mean() float64 {
	if h.count == 0 {
		return 0
	}
	return h.sum / h.count
}

// quantile estimates the q-quantile by linear interpolation inside the
// bucket that holds it (the histogram_quantile rule); the +Inf bucket
// reports the largest finite bound.
func (h histDelta) quantile(q float64) float64 {
	if h.count == 0 || len(h.les) == 0 {
		return 0
	}
	rank := q * h.cum[len(h.cum)-1]
	lower, below := 0.0, 0.0
	for i, le := range h.les {
		if h.cum[i] >= rank {
			if math.IsInf(le, 1) {
				return lower
			}
			in := h.cum[i] - below
			if in == 0 {
				return le
			}
			return lower + (le-lower)*(rank-below)/in
		}
		lower, below = le, h.cum[i]
	}
	return lower
}
