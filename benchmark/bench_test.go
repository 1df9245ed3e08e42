package main

import (
	"encoding/json"
	"math"
	"os"
	"strings"
	"sync"
	"testing"
	"time"
)

// checkFixture: two subscribers (group 0 and group 1, all prices) and six
// acked events alternating groups, all on pubend 1.
func checkFixture() ([]published, []subFilter) {
	var events []published
	for i := 0; i < 6; i++ {
		events = append(events, published{group: i % 2, price: 10, acked: true, pubend: 1, ts: uint64(100 + i)})
	}
	return events, []subFilter{{group: 0, hi: priceRange}, {group: 1, hi: priceRange}}
}

func recv(events []published, ids ...uint32) []received {
	var out []received
	for _, id := range ids {
		out = append(out, received{id: id, pubend: events[id].pubend, ts: events[id].ts})
	}
	return out
}

func TestCheckerCleanRun(t *testing.T) {
	events, filters := checkFixture()
	c := check(events, filters, [][]received{recv(events, 0, 2, 4), recv(events, 1, 3, 5)}, []int{0, 0})
	if c.failed() != 0 || c.Expected != 6 || c.Delivered != 6 {
		t.Fatalf("clean run flagged: %s", c)
	}
}

func TestCheckerFlagsInjectedFaults(t *testing.T) {
	events, filters := checkFixture()
	cases := []struct {
		name string
		log0 []received
		gaps int
		want func(checkResult) int
	}{
		{"duplicate", recv(events, 0, 2, 2, 4), 0, func(c checkResult) int { return c.Duplicate }},
		{"loss", recv(events, 0, 2), 0, func(c checkResult) int { return c.Lost }},
		{"reorder", recv(events, 0, 4, 2), 0, func(c checkResult) int { return c.Reordered }},
		{"skipped", recv(events, 0, 4), 0, func(c checkResult) int { return c.Gapped }},
		{"gap notice", recv(events, 0, 2, 4), 1, func(c checkResult) int { return c.Gapped }},
		{"foreign event", recv(events, 0, 1, 2, 4), 0, func(c checkResult) int { return c.Spurious }},
	}
	for _, tc := range cases {
		c := check(events, filters, [][]received{tc.log0, recv(events, 1, 3, 5)}, []int{tc.gaps, 0})
		if tc.want(c) != 1 || c.failed() != 1 {
			t.Errorf("%s: got %s, want exactly one %s", tc.name, c, tc.name)
		}
	}
	// A publish that was never acked is a failure, and so is delivering it.
	events[5].acked = false
	c := check(events, filters, [][]received{recv(events, 0, 2, 4), recv(events, 1, 3, 5)}, []int{0, 0})
	if c.Unacked != 1 || c.Spurious != 1 {
		t.Errorf("unacked publish: got %s", c)
	}
}

func TestOpenLoopTimesFromDue(t *testing.T) {
	const rate = 1000.0 // 1 ms apart
	var mu sync.Mutex
	due := map[uint32]int64{}
	sent := map[uint32]int64{}
	start := now() + int64(5*time.Millisecond)
	n := openLoop(start, 100*time.Millisecond, rate, 2, func(j int, k uint32, d int64) {
		mu.Lock()
		due[k], sent[k] = d, now()
		mu.Unlock()
		if k == 10 {
			time.Sleep(20 * time.Millisecond) // a stall on publisher 0
		}
	})
	if n != 100 || len(due) != 100 {
		t.Fatalf("scheduled %d, sent %d; want 100", n, len(due))
	}
	for k, d := range due {
		if want := start + int64(k)*int64(time.Millisecond); d != want {
			t.Fatalf("event %d due %d, want %d (due times must not move)", k, d, want)
		}
		if sent[k] < d {
			t.Fatalf("event %d sent before it was due", k)
		}
	}
	// The events publisher 0 owed during the stall went out late, and the
	// lateness is measured from their due time.
	if late := sent[12] - due[12]; late < int64(10*time.Millisecond) {
		t.Errorf("event 12 late by %v after a 20ms stall; want >= 10ms", time.Duration(late))
	}
}

const promText = `# HELP gryphon_x_total Things.
# TYPE gryphon_x_total counter
gryphon_x_total 7
gryphon_q{shard="0"} 3
gryphon_q{shard="1"} 5
# TYPE gryphon_lat_seconds histogram
gryphon_lat_seconds_bucket{le="0.001"} 10
gryphon_lat_seconds_bucket{le="0.01"} 90
gryphon_lat_seconds_bucket{le="+Inf"} 100
gryphon_lat_seconds_sum 0.5
gryphon_lat_seconds_count 100
gryphon_lat_seconds_bucket{shard="1",le="0.001"} 0
gryphon_lat_seconds_bucket{shard="1",le="0.01"} 0
gryphon_lat_seconds_bucket{shard="1",le="+Inf"} 0
`

func TestParseProm(t *testing.T) {
	s, err := parseProm(strings.NewReader(promText))
	if err != nil {
		t.Fatal(err)
	}
	if got := s.sum("gryphon_x_total"); got != 7 {
		t.Errorf("counter = %v, want 7", got)
	}
	if got, m := s.sum("gryphon_q"), s.max("gryphon_q"); got != 8 || m != 5 {
		t.Errorf("labeled gauge sum/max = %v/%v, want 8/5", got, m)
	}
	before, _ := parseProm(strings.NewReader(strings.NewReplacer(
		"_total 7", "_total 2", `"0.001"} 10`, `"0.001"} 0`, `"0.01"} 90`, `"0.01"} 0`,
		`"+Inf"} 100`, `"+Inf"} 0`, "_sum 0.5", "_sum 0", "_count 100", "_count 0").Replace(promText)))
	if d := delta(before, s, "gryphon_x_total"); d != 5 {
		t.Errorf("counter delta = %v, want 5", d)
	}
	h := histogramDelta(before, s, "gryphon_lat_seconds")
	if h.count != 100 || h.mean() != 0.005 {
		t.Errorf("histogram count/mean = %v/%v, want 100/0.005", h.count, h.mean())
	}
	// The median sits in the (0.001, 0.01] bucket, 40 of its 80 samples in.
	if q := h.quantile(0.5); math.Abs(q-0.0055) > 1e-9 {
		t.Errorf("p50 = %v, want 0.0055", q)
	}
	if q := h.quantile(0.99); q != 0.01 {
		t.Errorf("p99 in +Inf bucket = %v, want the largest finite bound 0.01", q)
	}
	if _, err := parseProm(strings.NewReader("gryphon_bad\n")); err == nil {
		t.Error("line without a value parsed")
	}
}

// TestSpecMatchesCode keeps BENCHMARK.json and the code in step.
func TestSpecMatchesCode(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		if _, err := findWorkload(w.Name); err != nil {
			t.Errorf("spec workload %q: %v", w.Name, err)
		}
	}
	for _, c := range []struct {
		spec []struct{ Name, Unit string }
		code []metricDef
	}{{spec.EndToEnd, endToEnd}, {spec.PerLayer, perLayer}} {
		if len(c.spec) != len(c.code) {
			t.Fatalf("spec lists %d metrics, code %d", len(c.spec), len(c.code))
		}
		for i, m := range c.spec {
			if m.Name != c.code[i].name || m.Unit != c.code[i].unit {
				t.Errorf("metric %d: spec %s/%s, code %s/%s", i, m.Name, m.Unit, c.code[i].name, c.code[i].unit)
			}
		}
	}
}

// TestSmokeWorkloads runs each workload briefly, traced, and requires a
// clean exactly-once check with every metric defined.
func TestSmokeWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the broker tree")
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			res, err := measure(w, 7, 10*time.Second, traced)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			failed := res.Check.failed()
			if failed != 0 || res.Check.attempted() == 0 || len(res.Problems) != 0 {
				t.Errorf("%s traced=%v: error_rate %d/%d, %s, problems %v",
					w.name, traced, failed, res.Check.attempted(), res.Check, res.Problems)
			}
			for _, d := range res.defs {
				if v, ok := res.Metrics[d.name]; !ok || math.IsNaN(v) {
					t.Errorf("%s traced=%v: metric %s undefined", w.name, traced, d.name)
				}
			}
		}
	}
}
