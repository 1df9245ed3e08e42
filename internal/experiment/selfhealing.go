package experiment

import (
	"fmt"
	"math/rand"
	"time"
)

// SelfHealingParams configures the automatic fail-over chaos experiment.
type SelfHealingParams struct {
	// Mids is the relay broker count; mid i ≥ 2 hangs under mid i-2, so
	// the tree is both wide and deep (0 = 5).
	Mids int
	// SHBs is the subscriber hosting broker count, spread round-robin
	// across the mids (0 = 6).
	SHBs int
	// Pubends hosted by the root (0 = 2).
	Pubends int
	// Kills is how many interior (mid) broker crashes to apply (0 = 5).
	Kills int
	// PermanentKills is how many of those crashes are permanent — the
	// broker never restarts, so its children MUST repair themselves
	// (0 = 1; must be < Mids).
	PermanentKills int
	// SubsPerSHB is the durable subscriber count per SHB (0 = 1).
	SubsPerSHB int
	// Rate is the publish rate in events/s (0 = 500).
	Rate int
	// Seed drives the kill schedule and the per-broker fail-over jitter
	// (0 = 1).
	Seed int64
	// Step is the pause between kills (0 = 120ms).
	Step time.Duration
	// KillDown is how long a restartable kill stays down before its
	// restart; keep it past FailoverAfter so children actually repair
	// instead of just riding out the blip (0 = 400ms).
	KillDown time.Duration
	// FailoverAfter is each broker's unhealthy threshold before it
	// abandons its parent for a candidate (0 = 120ms).
	FailoverAfter time.Duration
	// FaultLatency adds one-way latency to every inter-broker hop
	// (0 = none).
	FaultLatency time.Duration
}

func (p *SelfHealingParams) offsetSeed(i int64) { offsetSeed(&p.Seed, i) }

// SelfHealingResult is the outcome of one self-healing run.
type SelfHealingResult struct {
	Brokers        int // total brokers in the tree
	Subscribers    int
	Published      int64 // events accepted by the root
	Kills          int   // crashes applied (including permanent ones)
	PermanentKills int   // crashes with no restart
	Restarts       int   // successful restarts after restartable crashes
	Failovers      uint64
	Failbacks      uint64
	Repairs        int     // repair-driven re-parents measured
	RepairP50Ms    float64 // time-to-repair p50 (outage start -> new parent live)
	RepairP99Ms    float64
	Healthy        bool // every surviving broker healed after the chaos
	Verdict
}

// RunSelfHealing exercises automatic fail-over end to end: a deep/wide
// broker tree under live durable traffic where every non-root broker
// carries an ordered candidate-parent list, and a seeded driver crashes
// interior brokers — at least one permanently. The driver NEVER issues a
// re-parent: orphaned subtrees must notice the dead upstream themselves,
// probe their candidates, and adopt a live parent outside their own
// subtree (make-before-break, loop-free via the root/epoch/depth
// advertisements). The exactly-once contract must hold throughout: after
// the final heal every durable subscriber has every published event in
// timestamp order with zero gaps, duplicates or reorders, and every
// surviving broker reports healthy.
//
// The per-repair outage durations (link-loss to adopted-parent-live) from
// every broker's RepairStats feed the RepairP50Ms/RepairP99Ms result
// fields — the headline time-to-repair numbers.
func RunSelfHealing(dir string, p SelfHealingParams) (*SelfHealingResult, error) {
	orDefault(&p.Mids, 5)
	orDefault(&p.SHBs, 6)
	orDefault(&p.Pubends, 2)
	orDefault(&p.Kills, 5)
	orDefault(&p.PermanentKills, 1)
	orDefault(&p.SubsPerSHB, 1)
	orDefault(&p.Rate, 500)
	orDefault(&p.Seed, 1)
	orDefault(&p.Step, 120*time.Millisecond)
	orDefault(&p.KillDown, 400*time.Millisecond)
	orDefault(&p.FailoverAfter, 120*time.Millisecond)
	if p.PermanentKills > p.Kills {
		return nil, fmt.Errorf("experiment: PermanentKills %d > Kills %d", p.PermanentKills, p.Kills)
	}
	if p.PermanentKills >= p.Mids {
		return nil, fmt.Errorf("experiment: PermanentKills %d must leave a live mid (Mids %d)", p.PermanentKills, p.Mids)
	}
	rng := rand.New(rand.NewSource(p.Seed)) //nolint:gosec // schedule, not crypto

	// Mids fail straight to the root (shortest repair path); SHBs try the
	// other relays first.
	t, err := startTree(dir, treeShape{
		Mids: p.Mids, SHBs: p.SHBs, Pubends: p.Pubends, Seed: p.Seed, FaultLatency: p.FaultLatency,
		FailoverAfter: p.FailoverAfter, MidsRootFirst: true,
	})
	if err != nil {
		return nil, err
	}
	defer t.close()
	pool, load, err := t.traffic(p.SubsPerSHB, p.Rate)
	if err != nil {
		return nil, err
	}
	defer pool.Stop()
	defer load.Stop()
	res := &SelfHealingResult{Brokers: len(t.order), Subscribers: pool.Len()}

	// Kill driver: crash interior (mid) brokers only — the root must keep
	// accepting publishes and the SHBs own the durable state under test.
	// The first PermanentKills crashes never restart; their children have
	// no driver to save them. NO SetUpstream is ever issued here: that is
	// the whole point.
	for k := 0; k < p.Kills; k++ {
		time.Sleep(p.Step)
		var alive []*treeNode
		for _, m := range t.mids {
			if n := t.nodes[m]; n.b != nil {
				alive = append(alive, n)
			}
		}
		if len(alive) == 0 {
			return res, fmt.Errorf("experiment: no live mid left to kill")
		}
		n := alive[rng.Intn(len(alive))]
		t.crash(n)
		res.Kills++
		if res.PermanentKills < p.PermanentKills {
			n.dead = true
			res.PermanentKills++
			continue
		}
		time.Sleep(p.KillDown)
		// If the spec's parent was permanently killed in the meantime,
		// restart under the root instead — the recipe a deployer's
		// topology would converge to; the live brokers still repaired
		// themselves without help.
		if t.nodes[n.spec.Upstream].dead {
			n.spec.Upstream = "phb"
		}
		if err := t.restart(n); err != nil {
			return res, err
		}
		res.Restarts++
	}
	if err := t.healed(30 * time.Second); err != nil {
		return res, err
	}
	res.Healthy = true

	// Harvest the repair history: every broker's own fail-over record is
	// the time-to-repair distribution.
	var repairs Histogram
	for _, name := range t.order {
		if n := t.nodes[name]; n.b != nil {
			st := n.b.RepairStats()
			res.Failovers += st.Failovers
			res.Failbacks += st.Failbacks
			for _, d := range st.Repairs {
				repairs.Observe(d)
			}
		}
	}
	res.Repairs = repairs.Count()
	res.RepairP50Ms = float64(repairs.Quantile(0.50)) / float64(time.Millisecond)
	res.RepairP99Ms = float64(repairs.Quantile(0.99)) / float64(time.Millisecond)
	if res.Failovers == 0 {
		return res, fmt.Errorf("experiment: no broker failed over — the permanent kill should have forced at least one repair")
	}

	// Quiesce: stop publishing, then wait until recovery has replayed
	// every event to every subscriber.
	load.Stop()
	res.Published = load.Published(-1)
	res.Verdict = *pool.Drain(load.Published, 30*time.Second)
	if err := res.Err(); err != nil {
		return res, fmt.Errorf("experiment: self-healing: %w", err)
	}
	return res, nil
}
