package experiment

import (
	"fmt"
	"math/rand"
	"time"
)

// TortureResult is the outcome of the randomized fault-injection run.
type TortureResult struct {
	Published   int64
	Subscribers int
	Crashes     int
	Churns      int
	Verdict
}

// TortureParams configures the randomized crash/churn run.
type TortureParams struct {
	Subscribers int           // 0 = 6
	Duration    time.Duration // 0 = 3s of chaos
	Seed        int64
	Rate        int // events/s; 0 = 400
}

func (p *TortureParams) offsetSeed(i int64) { offsetSeed(&p.Seed, i) }

// RunTorture hammers a 2-broker system with randomized subscriber churn
// and SHB crash/restarts while publishing continuously, then verifies the
// full exactly-once contract: every subscriber received every event, in
// order, no duplicates, no gaps.
func RunTorture(dir string, p TortureParams) (*TortureResult, error) {
	orDefault(&p.Subscribers, 6)
	orDefault(&p.Duration, 3*time.Second)
	orDefault(&p.Rate, 400)
	c, err := BuildCluster(dir, Topology{SHBs: 1, Pubends: 2})
	if err != nil {
		return nil, err
	}
	defer c.Close()
	// Everyone subscribes to everything, so the final count is exact.
	pool, err := c.Pool(PoolOptions{N: p.Subscribers, AllEvents: true, AckInterval: 15 * time.Millisecond})
	if err != nil {
		return nil, err
	}
	defer pool.Stop()
	// The publisher never stops during the chaos.
	load, err := c.Load(LoadOptions{Rate: p.Rate, Payload: 1, Pubends: 2})
	if err != nil {
		return nil, err
	}
	defer load.Stop()

	res := &TortureResult{Subscribers: p.Subscribers}
	rng := rand.New(rand.NewSource(p.Seed + 99)) //nolint:gosec // schedule, not crypto
	for deadline := time.Now().Add(p.Duration); time.Now().Before(deadline); {
		switch rng.Intn(6) {
		case 0: // SHB crash + restart
			c.CrashSHB(0)
			time.Sleep(time.Duration(rng.Intn(100)+20) * time.Millisecond)
			if err := c.RestartSHB(0); err != nil {
				return nil, err
			}
			res.Crashes++
			// Reconnect everyone (their links died with the SHB).
			for i := 0; i < pool.Len(); i++ {
				pool.Reconnect(i)
			}
		default: // random subscriber churn
			i := rng.Intn(pool.Len())
			pool.Disconnect(i)
			time.Sleep(time.Duration(rng.Intn(60)+5) * time.Millisecond)
			pool.Reconnect(i)
			res.Churns++
		}
		time.Sleep(time.Duration(rng.Intn(150)+50) * time.Millisecond)
	}

	// Quiesce: stop publishing, wait for full delivery everywhere.
	load.Stop()
	res.Published = load.Published(-1)
	res.Verdict = *pool.Drain(load.Published, 20*time.Second)
	if err := res.Err(); err != nil {
		return res, fmt.Errorf("experiment: torture: %w", err)
	}
	return res, nil
}
