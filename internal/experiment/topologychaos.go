package experiment

import (
	"context"
	"fmt"
	"math/rand"
	"time"
)

// TopologyChaosParams configures the dynamic-membership chaos experiment.
type TopologyChaosParams struct {
	// Mids is the relay broker count; mid i ≥ 2 hangs under mid i-2, so
	// the tree is both wide and deep (0 = 3).
	Mids int
	// SHBs is the subscriber hosting broker count, spread round-robin
	// across the mids (0 = 8).
	SHBs int
	// Pubends hosted by the root (0 = 2).
	Pubends int
	// Kills is how many random broker crashes (with restart) to apply
	// (0 = 5).
	Kills int
	// Reparents is how many successful SetUpstream re-parents to apply
	// (0 = 5).
	Reparents int
	// SubsPerSHB is the durable subscriber count per SHB (0 = 1).
	SubsPerSHB int
	// Rate is the publish rate in events/s (0 = 500).
	Rate int
	// Seed drives the mutation schedule (0 = 1).
	Seed int64
	// Step is the pause between mutations (0 = 120ms).
	Step time.Duration
	// KillDown is how long a killed broker stays down before its restart
	// (0 = 100ms).
	KillDown time.Duration
	// FaultLatency adds one-way latency to every inter-broker hop through
	// the fault injector (0 = none) — re-parents race real in-flight
	// traffic instead of switching over an instantaneous network.
	FaultLatency time.Duration
	// Failover arms automatic fail-over on every non-root broker
	// (candidate parents + FailoverAfter): the self-healing machinery and
	// the operator-driven mutations then race each other, and both must
	// preserve exactly-once.
	Failover bool
	// FailoverAfter is the unhealthy threshold when Failover is set
	// (0 = 150ms — comfortably past KillDown so restarts usually win the
	// race, with fail-over catching the stragglers).
	FailoverAfter time.Duration
}

func (p *TopologyChaosParams) offsetSeed(i int64) { offsetSeed(&p.Seed, i) }

// TopologyChaosResult is the outcome of one chaos run.
type TopologyChaosResult struct {
	Brokers     int // total brokers in the tree
	Subscribers int
	Published   int64
	Kills       int  // crashes applied
	Restarts    int  // successful restarts after crashes
	Reparents   int  // successful SetUpstream re-parents
	Skipped     int  // mutations skipped (no legal target / dial raced a kill)
	Healthy     bool // every broker's /healthz OK after the final heal
	Verdict
}

// RunTopologyChaos exercises runtime membership end to end: a deep/wide
// broker tree under live durable traffic, with random broker crashes
// (+restarts) and random live re-parents (Broker.SetUpstream) applied by a
// seeded driver. The exactly-once contract must hold through every
// mutation: after the final heal each durable subscriber has every
// published event, in timestamp order, with zero gaps, duplicates or
// reorders, and every broker's /healthz endpoint reports healthy.
func RunTopologyChaos(dir string, p TopologyChaosParams) (*TopologyChaosResult, error) {
	orDefault(&p.Mids, 3)
	orDefault(&p.SHBs, 8)
	orDefault(&p.Pubends, 2)
	orDefault(&p.Kills, 5)
	orDefault(&p.Reparents, 5)
	orDefault(&p.SubsPerSHB, 1)
	orDefault(&p.Rate, 500)
	orDefault(&p.Seed, 1)
	orDefault(&p.Step, 120*time.Millisecond)
	orDefault(&p.KillDown, 100*time.Millisecond)
	orDefault(&p.FailoverAfter, 150*time.Millisecond)
	rng := rand.New(rand.NewSource(p.Seed)) //nolint:gosec // schedule, not crypto

	shape := treeShape{Mids: p.Mids, SHBs: p.SHBs, Pubends: p.Pubends, Seed: p.Seed, FaultLatency: p.FaultLatency}
	if p.Failover {
		shape.FailoverAfter = p.FailoverAfter
	}
	t, err := startTree(dir, shape)
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
	res := &TopologyChaosResult{Brokers: len(t.order), Subscribers: pool.Len()}

	// inSubtree reports whether node name sits in the subtree rooted at
	// root (walking the driver's model of current parents).
	inSubtree := func(name, root string) bool {
		for cur := name; cur != ""; cur = t.nodes[cur].spec.Upstream {
			if cur == root {
				return true
			}
		}
		return false
	}

	// Mutation driver: interleave kills and re-parents until both quotas
	// are met. Kills never target the root (the event log must keep
	// accepting publishes); re-parents pick any non-root node and any
	// alive target outside its own subtree.
	mutable := t.order[1:]
	killsLeft, repsLeft := p.Kills, p.Reparents
	for attempts := 0; (killsLeft > 0 || repsLeft > 0) && attempts < (p.Kills+p.Reparents)*10; attempts++ {
		time.Sleep(p.Step)
		// With fail-over armed, brokers re-parent themselves behind the
		// driver's back; refresh the model so the subtree check (and the
		// restart recipe) sees the tree as it actually is, not as it was
		// last mutated — a stale model could let a re-parent build a loop.
		if p.Failover {
			for _, name := range mutable {
				if n := t.nodes[name]; n.b != nil {
					if up := n.b.UpstreamAddr(); up != "" {
						n.spec.Upstream = up
					}
				}
			}
		}
		doKill := killsLeft > 0 && (repsLeft == 0 || rng.Intn(2) == 0)
		n := t.nodes[mutable[rng.Intn(len(mutable))]]
		if doKill {
			if n.b == nil {
				res.Skipped++
				continue
			}
			t.crash(n)
			res.Kills++
			killsLeft--
			time.Sleep(p.KillDown)
			// The spec's Upstream tracks re-parents, so the successor
			// rejoins the current tree.
			if err := t.restart(n); err != nil {
				return res, err
			}
			res.Restarts++
			continue
		}
		// Re-parent: a random alive non-root node moves under a random
		// alive target outside its own subtree.
		target := t.nodes[t.order[rng.Intn(len(t.order))]]
		if n.b == nil || target.b == nil || target.spec.SHB || n == target ||
			target.spec.Name == n.spec.Upstream || inSubtree(target.spec.Name, n.spec.Name) {
			res.Skipped++
			continue
		}
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		err := n.b.SetUpstream(ctx, target.spec.Name)
		cancel()
		if err != nil {
			res.Skipped++ // target died under us; the supervisor was never installed
			continue
		}
		n.spec.Upstream = target.spec.Name
		res.Reparents++
		repsLeft--
	}
	if killsLeft > 0 || repsLeft > 0 {
		return res, fmt.Errorf("experiment: mutation quota unmet: %d kills, %d reparents left (skipped %d)",
			killsLeft, repsLeft, res.Skipped)
	}
	if err := t.healed(20 * time.Second); err != nil {
		return res, err
	}
	res.Healthy = true

	// Quiesce: stop publishing, then wait until recovery has replayed
	// every event to every subscriber.
	load.Stop()
	res.Published = load.Published(-1)
	res.Verdict = *pool.Drain(load.Published, 30*time.Second)
	if err := res.Err(); err != nil {
		return res, fmt.Errorf("experiment: topology chaos: %w", err)
	}
	return res, nil
}
