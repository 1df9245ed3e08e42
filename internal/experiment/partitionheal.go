package experiment

import (
	"fmt"
	"time"

	"repro/internal/faultnet"
	"repro/internal/overlay"
)

// PartitionHealParams configures the partition-and-heal experiment.
type PartitionHealParams struct {
	// Severs is how many times the SHB↔PHB link is cut (0 = 5).
	Severs int
	// Subscribers is the durable subscriber count on the SHB (0 = 4).
	Subscribers int
	// Seed drives the fault injector (0 = 1).
	Seed int64
	// Rate is the publish rate in events/s (0 = 400).
	Rate int
	// HoldDown is how long each partition lasts (0 = 120ms).
	HoldDown time.Duration
	// Between is the healthy interval between severs (0 = 150ms).
	Between time.Duration
}

func (p *PartitionHealParams) offsetSeed(i int64) { offsetSeed(&p.Seed, i) }

// PartitionHealResult is the outcome of the partition-and-heal run.
type PartitionHealResult struct {
	Published   int64
	Subscribers int
	Severs      int           // partitions actually performed
	LinksKilled int64         // connections the fault injector tore down
	Reconnects  uint64        // supervised upstream re-establishments
	MeanHeal    time.Duration // mean observed partition-lift → link-up time
	MaxHeal     time.Duration
	Verdict
}

// RunPartitionHeal severs the SHB↔PHB overlay link repeatedly while a
// publisher streams events, and verifies the paper's §3.3 recovery story
// end to end: the supervised link redials with backoff, the broker resyncs
// its soft state (subscription re-announcement, pending-curiosity
// re-nacks), the knowledge/NACK path replays the partition gap from the
// PHB's log, and every durable subscriber sees every event exactly once in
// timestamp order. Brokers dial through a seeded faultnet decorator;
// clients use the undecorated transport, so only the inter-broker link is
// ever cut.
func RunPartitionHeal(dir string, p PartitionHealParams) (*PartitionHealResult, error) {
	orDefault(&p.Severs, 5)
	orDefault(&p.Subscribers, 4)
	orDefault(&p.Seed, 1)
	orDefault(&p.Rate, 400)
	orDefault(&p.HoldDown, 120*time.Millisecond)
	orDefault(&p.Between, 150*time.Millisecond)

	var fnet *faultnet.Network
	c, err := BuildCluster(dir, Topology{
		SHBs:        1,
		Pubends:     2,
		DialTimeout: 500 * time.Millisecond,
		WrapBrokerTransport: func(t overlay.Transport) overlay.Transport {
			fnet = faultnet.New(t, p.Seed)
			return fnet
		},
	})
	if err != nil {
		return nil, err
	}
	defer c.Close()
	pool, err := c.Pool(PoolOptions{N: p.Subscribers, AllEvents: true, AckInterval: 15 * time.Millisecond})
	if err != nil {
		return nil, err
	}
	defer pool.Stop()
	// The publisher streams through every partition: its link to the PHB
	// is on the undecorated transport and never cut.
	load, err := c.Load(LoadOptions{Rate: p.Rate, Payload: 1, Pubends: 2})
	if err != nil {
		return nil, err
	}
	defer load.Stop()
	res := &PartitionHealResult{Subscribers: p.Subscribers}

	shb := c.SHBBroker(0)
	upstreamUp := func() bool {
		for _, st := range shb.Health() {
			if st.State != overlay.LinkUp {
				return false
			}
		}
		return true
	}

	// Sever loop: partition the PHB address (killing the live supervised
	// link and blocking redials), hold, heal, wait for the supervisor to
	// re-establish, repeat.
	var totalHeal time.Duration
	for i := 0; i < p.Severs; i++ {
		time.Sleep(p.Between)
		fnet.Partition(c.PHBAddr())
		res.Severs++
		time.Sleep(p.HoldDown)
		fnet.Heal()
		healStart := time.Now()
		for !upstreamUp() {
			if time.Since(healStart) > 10*time.Second {
				return res, fmt.Errorf("experiment: upstream link did not heal after sever %d: %+v",
					i+1, shb.Health())
			}
			time.Sleep(2 * time.Millisecond)
		}
		took := time.Since(healStart)
		totalHeal += took
		res.MaxHeal = max(res.MaxHeal, took)
	}
	if res.Severs > 0 {
		res.MeanHeal = totalHeal / time.Duration(res.Severs)
	}

	// Quiesce: stop publishing, then wait until the recovery protocol has
	// replayed every partition gap to every subscriber.
	load.Stop()
	res.Published = load.Published(-1)
	res.Verdict = *pool.Drain(load.Published, 20*time.Second)
	res.LinksKilled = fnet.Kills()
	for _, st := range shb.Health() {
		res.Reconnects += st.Reconnects
	}
	if err := res.Err(); err != nil {
		return res, fmt.Errorf("experiment: partition-heal: %w", err)
	}
	return res, nil
}
