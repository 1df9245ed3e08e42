package main

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"time"

	"repro"
)

// workload is one traffic mix over the benchmark tree. README.md gives
// each one's rationale and the layers it loads.
type workload struct {
	name string
	// rate is the open-loop publish rate in events/s.
	rate float64
	// subs is the durable population, split evenly over the SHBs.
	subs int
	// storm places reattach cycles inside the measured window; without
	// it a few reattach probes follow the measured window instead, so
	// the live figures are steady-state and the catchup figures still
	// exist.
	storm  bool
	outage time.Duration
}

var workloads = []workload{
	{name: "live-fanout", rate: 8000, subs: 1000, outage: 1500 * time.Millisecond},
	{name: "catchup-storm", rate: 4000, subs: 1000, storm: true, outage: 3 * time.Second},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// Event attribute space: the generator draws a group and a price for
// every event; subscribers filter on them.
const (
	numGroups    = 64
	priceRange   = 1000
	payloadBytes = 250 // paper §5.1
	// Group-filter price caps are drawn from [capLo, capHi]: their mean
	// selectivity is 0.256, so an event of a 1000-subscriber population
	// reaches about 4 subscribers, and every subscriber still matches at
	// least a fifth of its group's events (catchup completes on the first
	// post-reattach event, which must not be rare).
	capLo = 192
	capHi = 320
)

// subFilter is one subscriber's filter and the plain-Go predicate the
// checker evaluates instead of the program's matcher.
type subFilter struct {
	group int
	hi    int // price < hi
}

func (f subFilter) match(group, price int) bool {
	return f.group == group && price < f.hi
}

func (f subFilter) source() string {
	return fmt.Sprintf(`group = "g%d" and price < %d`, f.group, f.hi)
}

// filters draws the population's filters from the seed.
func (w workload) filters(seed int64) []subFilter {
	out := make([]subFilter, w.subs)
	rng := rand.New(rand.NewSource(seed ^ 0x5eed_f117))
	perm := rng.Perm(w.subs)
	for i := range out {
		out[i] = subFilter{group: perm[i] % numGroups, hi: capLo + rng.Intn(capHi-capLo+1)}
	}
	return out
}

// cohort is the seeded half of the population that detaches and
// reattaches (the rest stays connected throughout).
func (w workload) cohort(seed int64) []bool {
	rng := rand.New(rand.NewSource(seed ^ 0xc0_4047))
	in := make([]bool, w.subs)
	for _, i := range rng.Perm(w.subs)[:w.subs/2] {
		in[i] = true
	}
	return in
}

// cycle is one detach/reattach of the cohort, as offsets from the start
// of a phase.
type cycle struct{ detach, reattach time.Duration }

// Storm cycles repeat every stormPeriod; the outage is clipped to fit.
// Probe cycles follow the live window back to back, each an outage and a
// tail in which the reattached cohort catches up. live-fanout's probe
// outage leaves each subscriber the same backlog as a storm cycle does
// at catchup-storm's rate.
const (
	stormPeriod = 5 * time.Second
	probes      = 8
	probeTail   = time.Second
)

// schedule lays out one phase of length d: the end of the measured live
// window and the cohort's outage cycles.
func (w workload) schedule(seed int64, d time.Duration) (liveUntil time.Duration, cycles []cycle) {
	rng := rand.New(rand.NewSource(seed ^ 0x0a7a6e))
	if w.storm {
		period := min(stormPeriod, d)
		outage := min(w.outage, period*6/10)
		for start := time.Duration(0); start+period <= d; start += period {
			// Seeded jitter of the detach within the first tenth of the
			// period keeps cycles off the broker tick's phase.
			at := start + period/20 + time.Duration(rng.Int63n(int64(period/20)+1))
			cycles = append(cycles, cycle{at, at + outage})
		}
		return d, cycles
	}
	// The probes take at most half the phase; a short phase gets fewer
	// of them rather than shorter tails, which would leave catchups
	// unconfirmed.
	outage, tail := min(w.outage, d/4), min(probeTail, d/4)
	n := time.Duration(max(1, min(probes, int(d/2/(outage+tail)))))
	liveUntil = d - n*(outage+tail)
	for i := time.Duration(0); i < n; i++ {
		at := liveUntil + i*(outage+tail)
		cycles = append(cycles, cycle{at, at + outage})
	}
	return liveUntil, cycles
}

// subWindow is the length of the sub-windows the live window is cut
// into: figures are taken per sub-window and the median over them is
// reported, so a stall (on a shared machine, often CPU stolen by another
// guest) moves one sub-window, not the result. A sub-window spans one
// whole storm cycle, so each holds the same mix of storm and calm, and
// several of the runtime's GC cycles, so its tail latencies include GC
// pauses in the same measure every time.
const subWindow = stormPeriod

// attrsOf derives event i's attributes from the seed alone, so the same
// seed yields the same inputs whatever the publishers' interleaving.
func attrsOf(seed int64, i uint64) (group, price int) {
	h := splitmix(uint64(seed) ^ i*0x9e3779b97f4a7c15)
	return int(h % numGroups), int((h >> 16) % priceRange)
}

func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

var groupNames = func() []string {
	out := make([]string, numGroups)
	for i := range out {
		out[i] = "g" + strconv.Itoa(i)
	}
	return out
}()

// newEvent builds the wire event for id. The first 4 payload bytes carry
// the id, which is how a subscriber names what it received.
func newEvent(id uint32, group, price int) repro.Event {
	payload := make([]byte, payloadBytes)
	binary.LittleEndian.PutUint32(payload, id)
	for i := 4; i < len(payload); i++ {
		payload[i] = byte(i)
	}
	return repro.Event{
		Attrs:   repro.Attributes{"group": repro.String(groupNames[group]), "price": repro.Int(int64(price))},
		Payload: payload,
	}
}

// warmupAttrs lists one (group, price) per distinct filter, each matching
// that filter, so publishing them reaches every subscriber.
func warmupAttrs(filters []subFilter) [][2]int {
	seen := make(map[[2]int]bool)
	var out [][2]int
	for _, f := range filters {
		a := [2]int{f.group, 0}
		if !seen[a] {
			seen[a] = true
			out = append(out, a)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i][0] != out[j][0] {
			return out[i][0] < out[j][0]
		}
		return out[i][1] < out[j][1]
	})
	return out
}
