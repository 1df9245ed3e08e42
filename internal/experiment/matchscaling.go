package experiment

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"repro/internal/filter"
	"repro/internal/matchidx"
	"repro/internal/vtime"
)

// MatchScalingParams configures the matching-engine scaling experiment: the
// linear brute-force engine versus the counting attribute index over the
// same subscription population and event stream.
type MatchScalingParams struct {
	// Sizes are the subscription counts to sweep (required).
	Sizes []int
	// Events is the number of matched events measured per size (0 = 200).
	Events int
	// Seed makes population and event generation reproducible (0 = 1).
	Seed int64
}

// MatchScalingPoint is one size's measurement.
type MatchScalingPoint struct {
	Subs int `json:"subs"`
	// LinearNsPerEvent / IndexedNsPerEvent are mean per-event match
	// latencies (MatchAppend into a reused buffer).
	LinearNsPerEvent  float64 `json:"linearNsPerEvent"`
	IndexedNsPerEvent float64 `json:"indexedNsPerEvent"`
	// SpeedupX is linear/indexed latency.
	SpeedupX float64 `json:"speedupX"`
	// LinearCandidates / IndexedCandidates are mean fully-evaluated
	// subscriptions per event (the selectivity denominator); hits are the
	// mean matches per event.
	LinearCandidates  float64 `json:"linearCandidates"`
	IndexedCandidates float64 `json:"indexedCandidates"`
	Hits              float64 `json:"hits"`
	// IndexedBuildMs is the time to index the whole population.
	IndexedBuildMs float64 `json:"indexedBuildMs"`
}

// MatchScalingResult is the full sweep.
type MatchScalingResult struct {
	Points []MatchScalingPoint `json:"points"`
}

// matchWorkload generates the benchmark's subscription mix: half
// equality-anchored (with a range rider), a quarter pure range windows, and
// the rest prefix and exists/inequality subscriptions — exercising every
// index structure (hash buckets, sorted bounds, tries, presence sets,
// residuals).
func matchWorkload(r *rand.Rand, n int) []*filter.Subscription {
	groups := n / 16
	if groups < 64 {
		groups = 64
	}
	subs := make([]*filter.Subscription, n)
	for i := range subs {
		var src string
		switch {
		case i%4 < 2: // equality + range rider
			src = fmt.Sprintf(`group = "g%d" and price > %d`,
				r.Intn(groups), r.Intn(9000))
		case i%4 == 2: // range window, ~1%% selective
			lo := r.Intn(9900)
			src = fmt.Sprintf(`price >= %d and price < %d`, lo, lo+100)
		case i%8 == 3: // prefix
			src = fmt.Sprintf(`prefix(sym, "S%d") and price <= %d`,
				r.Intn(100), r.Intn(10000))
		default: // exists + inequality residual
			src = fmt.Sprintf(`exists(sym) and region != "r%d" and price > %d`,
				r.Intn(8), 5000+r.Intn(5000))
		}
		subs[i] = filter.MustParse(src)
	}
	return subs
}

func matchEvents(r *rand.Rand, n, groups int) []filter.Attributes {
	evs := make([]filter.Attributes, n)
	for i := range evs {
		evs[i] = filter.Attributes{
			"group":  filter.String(fmt.Sprintf("g%d", r.Intn(groups))),
			"price":  filter.Int(int64(r.Intn(10000))),
			"sym":    filter.String(fmt.Sprintf("S%d%d", r.Intn(100), r.Intn(10))),
			"region": filter.String(fmt.Sprintf("r%d", r.Intn(8))),
		}
	}
	return evs
}

// measureEngine times eng over the event set, returning mean ns/event, mean
// candidates/event, mean hits/event and the concatenated sorted ID sets
// (for cross-engine equivalence checking).
func measureEngine(eng filter.Engine, events []filter.Attributes) (nsPerEvent, cands, hits float64, all [][]vtime.SubscriberID) {
	buf := make([]vtime.SubscriberID, 0, 1024)
	totalCand := 0
	all = make([][]vtime.SubscriberID, len(events))
	start := time.Now()
	for i, ev := range events {
		var c int
		buf, c = eng.MatchAppend(buf[:0], ev)
		totalCand += c
		ids := make([]vtime.SubscriberID, len(buf))
		copy(ids, buf)
		sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
		all[i] = ids
		hits += float64(len(ids))
	}
	elapsed := time.Since(start)
	n := float64(len(events))
	return float64(elapsed.Nanoseconds()) / n, float64(totalCand) / n, hits / n, all
}

// RunMatchScaling sweeps subscription counts, measuring linear versus
// indexed matching on an identical population and event stream. Every run
// also cross-checks the two engines event by event, so a divergence fails
// the experiment rather than skewing its numbers.
func RunMatchScaling(p MatchScalingParams) (*MatchScalingResult, error) {
	if len(p.Sizes) == 0 {
		return nil, fmt.Errorf("match scaling: at least one size required")
	}
	orDefault(&p.Events, 200)
	orDefault(&p.Seed, 1)
	res := &MatchScalingResult{}
	for _, n := range p.Sizes {
		r := rand.New(rand.NewSource(p.Seed))
		subs := matchWorkload(r, n)
		groups := n / 16
		if groups < 64 {
			groups = 64
		}
		events := matchEvents(r, p.Events, groups)

		linear := filter.NewLinearEngine()
		for i, sub := range subs {
			linear.Add(vtime.SubscriberID(i+1), sub)
		}
		buildStart := time.Now()
		indexed := matchidx.New()
		for i, sub := range subs {
			indexed.Add(vtime.SubscriberID(i+1), sub)
		}
		buildMs := float64(time.Since(buildStart).Nanoseconds()) / 1e6

		linNs, linCand, hits, linSets := measureEngine(linear, events)
		idxNs, idxCand, _, idxSets := measureEngine(indexed, events)
		for i := range linSets {
			if len(linSets[i]) != len(idxSets[i]) {
				return nil, fmt.Errorf("match scaling: engines diverge at %d subs, event %d: linear %d ids, indexed %d ids",
					n, i, len(linSets[i]), len(idxSets[i]))
			}
			for j := range linSets[i] {
				if linSets[i][j] != idxSets[i][j] {
					return nil, fmt.Errorf("match scaling: engines diverge at %d subs, event %d, position %d",
						n, i, j)
				}
			}
		}
		res.Points = append(res.Points, MatchScalingPoint{
			Subs:              n,
			LinearNsPerEvent:  linNs,
			IndexedNsPerEvent: idxNs,
			SpeedupX:          linNs / idxNs,
			LinearCandidates:  linCand,
			IndexedCandidates: idxCand,
			Hits:              hits,
			IndexedBuildMs:    buildMs,
		})
	}
	return res, nil
}
