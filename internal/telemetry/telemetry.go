// Package telemetry is the runtime observability subsystem of the broker
// stack: a registry of named instruments (atomic counters, gauges, and
// fixed-bucket histograms) with lock-free record paths, exposed over an
// admin HTTP endpoint in Prometheus text exposition format together with
// health/readiness checks and net/http/pprof profiles (see server.go).
//
// Unlike the experiment harness's series and exact-quantile histograms
// (internal/experiment), which regenerate the paper's figures after a
// run, telemetry instruments are
// live: they are sampled while a broker serves traffic, and they are cheap
// enough (single uncontended atomic add, well under 50ns; see
// BenchmarkTelemetryCounter) to sit on every hot path of the stack:
// routing, constream/catchup delivery, PFS writes and reads, log-volume
// appends and fsyncs, metastore commits, overlay links, and JMS acks.
//
// Instruments are registered once (typically in a package-level var block)
// and recorded through a pointer, so the hot path never touches the
// registry map or any lock. Registration itself is concurrency-safe and
// idempotent: asking for an existing name returns the existing instrument;
// asking for an existing name with a different instrument kind panics
// (a programming error worth failing loudly on).
//
// The package is stdlib-only by design.
package telemetry

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing instrument. The zero value is
// usable but unregistered; obtain registered counters from a Registry.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be non-negative for the value to stay monotone; the
// counter does not enforce it).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Load returns the current value.
func (c *Counter) Load() int64 { return c.v.Load() }

// Gauge is an instantaneous value that can move in both directions.
type Gauge struct {
	v atomic.Int64
}

// Set stores the value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add adjusts the value by n.
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Inc adds one.
func (g *Gauge) Inc() { g.v.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.v.Add(-1) }

// Load returns the current value.
func (g *Gauge) Load() int64 { return g.v.Load() }

// Histogram is a fixed-bucket histogram over int64 observations. The
// record path is lock-free: a short linear scan over the (small, fixed)
// bucket bounds followed by three uncontended atomic adds. Bounds are
// upper bounds, ascending; observations above the last bound land in the
// implicit +Inf bucket.
//
// The display scale divides raw observed values for exposition, so a
// histogram can observe integer nanoseconds internally while exporting
// seconds (the Prometheus base unit for time).
type Histogram struct {
	bounds []int64        // ascending upper bounds (raw units)
	counts []atomic.Int64 // len(bounds)+1; last is +Inf
	count  atomic.Int64
	sum    atomic.Int64 // raw units
	scale  float64      // raw units per display unit (e.g. 1e9 ns/s)
}

func newHistogram(bounds []int64, scale float64) *Histogram {
	b := make([]int64, len(bounds))
	copy(b, bounds)
	sort.Slice(b, func(i, j int) bool { return b[i] < b[j] })
	if scale <= 0 {
		scale = 1
	}
	return &Histogram{
		bounds: b,
		counts: make([]atomic.Int64, len(b)+1),
		scale:  scale,
	}
}

// Observe records one raw-unit observation.
func (h *Histogram) Observe(v int64) {
	i := 0
	// Linear scan: bucket counts are small (≤ ~20) and observations skew
	// toward the low buckets, so this beats binary search in practice and
	// keeps the path branch-predictable.
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// ObserveDuration records a duration into a histogram created with
// DurationHistogram (raw unit: nanoseconds).
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(int64(d)) }

// Count reports the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum reports the sum of observations in display units.
func (h *Histogram) Sum() float64 { return float64(h.sum.Load()) / h.scale }

// snapshot returns cumulative bucket counts aligned with bounds plus +Inf.
func (h *Histogram) snapshot() []int64 {
	out := make([]int64, len(h.counts))
	var cum int64
	for i := range h.counts {
		cum += h.counts[i].Load()
		out[i] = cum
	}
	return out
}

// Instrument kinds, for registry bookkeeping.
type kind uint8

const (
	kindCounter kind = iota + 1
	kindGauge
	kindHistogram
)

func (k kind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	case kindHistogram:
		return "histogram"
	}
	return "unknown"
}

// entry is one registered instrument.
type entry struct {
	name string
	help string
	kind kind
	c    *Counter
	g    *Gauge
	h    *Histogram
}

// Registry holds named instruments and renders them in Prometheus text
// exposition format. All methods are safe for concurrent use; instrument
// record paths never touch the registry.
type Registry struct {
	mu      sync.Mutex
	entries map[string]*entry
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{entries: make(map[string]*entry)}
}

// defaultRegistry is the process-wide registry every package-level
// instrument lives in; the admin server exposes it.
var defaultRegistry = NewRegistry()

// Default returns the process-wide registry.
func Default() *Registry { return defaultRegistry }

// lookup returns the entry for name after checking its kind, or nil when
// absent. Callers hold r.mu.
func (r *Registry) lookup(name string, k kind) *entry {
	e, ok := r.entries[name]
	if !ok {
		return nil
	}
	if e.kind != k {
		panic(fmt.Sprintf("telemetry: instrument %q registered as %s, requested as %s",
			name, e.kind, k))
	}
	return e
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name, help string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	if e := r.lookup(name, kindCounter); e != nil {
		return e.c
	}
	c := &Counter{}
	r.entries[name] = &entry{name: name, help: help, kind: kindCounter, c: c}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name, help string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	if e := r.lookup(name, kindGauge); e != nil {
		return e.g
	}
	g := &Gauge{}
	r.entries[name] = &entry{name: name, help: help, kind: kindGauge, g: g}
	return g
}

// Histogram returns the named value histogram with the given raw upper
// bounds, creating it on first use (bounds are ignored when it exists).
func (r *Registry) Histogram(name, help string, bounds []int64) *Histogram {
	return r.histogram(name, help, bounds, 1)
}

// DurationHistogram returns the named latency histogram. Durations are
// recorded in nanoseconds and exposed in seconds; by convention the name
// should end in "_seconds".
func (r *Registry) DurationHistogram(name, help string, bounds []time.Duration) *Histogram {
	raw := make([]int64, len(bounds))
	for i, d := range bounds {
		raw[i] = int64(d)
	}
	return r.histogram(name, help, raw, 1e9)
}

func (r *Registry) histogram(name, help string, bounds []int64, scale float64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	if e := r.lookup(name, kindHistogram); e != nil {
		return e.h
	}
	h := newHistogram(bounds, scale)
	r.entries[name] = &entry{name: name, help: help, kind: kindHistogram, h: h}
	return h
}

// sortedEntries snapshots the registered entries in name order.
func (r *Registry) sortedEntries() []*entry {
	r.mu.Lock()
	out := make([]*entry, 0, len(r.entries))
	for _, e := range r.entries {
		out = append(out, e)
	}
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// splitLabels divides an instrument name into its metric family and an
// optional label set: a name like `depth{shard="0"}` belongs to family
// "depth" with labels `shard="0"`. Labeled instruments are how this
// registry models Prometheus label dimensions without a label API: each
// labeled series is its own instrument, and rendering groups them into
// one family.
func splitLabels(name string) (family, labels string) {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:i], strings.TrimSuffix(name[i+1:], "}")
	}
	return name, ""
}

// WritePrometheus renders every registered instrument in the Prometheus
// text exposition format (version 0.0.4). Instruments whose names carry a
// label set (`name{key="value"}`) are grouped into one metric family:
// HELP and TYPE are emitted once per family (sortedEntries keeps a
// family's series adjacent), and each series renders with its labels.
func (r *Registry) WritePrometheus(w io.Writer) error {
	lastFamily := ""
	for _, e := range r.sortedEntries() {
		family, labels := splitLabels(e.name)
		if family != lastFamily {
			lastFamily = family
			if e.help != "" {
				if _, err := fmt.Fprintf(w, "# HELP %s %s\n", family, e.help); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", family, e.kind); err != nil {
				return err
			}
		}
		var err error
		switch e.kind {
		case kindCounter:
			_, err = fmt.Fprintf(w, "%s %d\n", e.name, e.c.Load())
		case kindGauge:
			_, err = fmt.Fprintf(w, "%s %d\n", e.name, e.g.Load())
		case kindHistogram:
			err = writeHistogram(w, family, labels, e.h)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

func writeHistogram(w io.Writer, family, labels string, h *Histogram) error {
	// Suffixes attach to the family, with the series labels folded into
	// the brace set (`f_bucket{shard="0",le="1"}`).
	withLabels := func(suffix, extra string) string {
		all := labels
		if extra != "" {
			if all != "" {
				all += ","
			}
			all += extra
		}
		if all == "" {
			return family + suffix
		}
		return family + suffix + "{" + all + "}"
	}
	cum := h.snapshot()
	for i, bound := range h.bounds {
		le := formatBound(float64(bound) / h.scale)
		if _, err := fmt.Fprintf(w, "%s %d\n", withLabels("_bucket", fmt.Sprintf("le=%q", le)), cum[i]); err != nil {
			return err
		}
	}
	total := cum[len(cum)-1]
	if _, err := fmt.Fprintf(w, "%s %d\n", withLabels("_bucket", `le="+Inf"`), total); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s %s\n", withLabels("_sum", ""), formatBound(h.Sum())); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s %d\n", withLabels("_count", ""), total)
	return err
}

// formatBound renders a float without trailing-zero noise ("0.005", "1",
// "2.5") the way Prometheus clients conventionally do.
func formatBound(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatFloat(v, 'f', -1, 64)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// DefBuckets are general-purpose latency bounds (Prometheus defaults):
// 5ms … 10s.
var DefBuckets = []time.Duration{
	5 * time.Millisecond, 10 * time.Millisecond, 25 * time.Millisecond,
	50 * time.Millisecond, 100 * time.Millisecond, 250 * time.Millisecond,
	500 * time.Millisecond, 1 * time.Second, 2500 * time.Millisecond,
	5 * time.Second, 10 * time.Second,
}

// FastBuckets are microsecond-scale bounds for in-process hot paths
// (metastore commits, PFS syncs): 10µs … 1s.
var FastBuckets = []time.Duration{
	10 * time.Microsecond, 50 * time.Microsecond, 100 * time.Microsecond,
	500 * time.Microsecond, 1 * time.Millisecond, 5 * time.Millisecond,
	10 * time.Millisecond, 50 * time.Millisecond, 100 * time.Millisecond,
	500 * time.Millisecond, 1 * time.Second,
}

// SizeBuckets are exponential count/size bounds for batch sizes and walk
// lengths: 1 … 65536.
var SizeBuckets = []int64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 4096, 16384, 65536}
