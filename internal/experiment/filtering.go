package experiment

import (
	"fmt"
	"time"
)

// FilteringResult quantifies intermediate-broker filtering (section 1:
// "filtering of events at intermediate nodes ... improves network
// utilization"): the fraction of event transmissions on SHB links that the
// intermediate broker downgraded to silence because nothing below the link
// subscribed to them.
type FilteringResult struct {
	EventsForwarded int64
	EventsFiltered  int64
	SavedFraction   float64 // filtered / (filtered + forwarded)
	Verdict
}

// RunFilteringAblation runs a PHB → intermediate → 2-SHB topology where
// each SHB's subscribers want only one of the four groups; three quarters
// of each link's event traffic should be filtered at the intermediate.
func RunFilteringAblation(dir string, measure time.Duration) (*FilteringResult, error) {
	orDefault(&measure, time.Second)
	c, err := BuildCluster(dir, Topology{
		SHBs:         2,
		Intermediate: true,
		Pubends:      PaperGroups,
	})
	if err != nil {
		return nil, err
	}
	defer c.Close()

	// Subscriber i sits on SHB i mod 2 and wants group i mod 2: SHB 0
	// hosts group-0 subscribers, SHB 1 group-1.
	pool, err := c.Pool(PoolOptions{N: 4, Groups: 2})
	if err != nil {
		return nil, err
	}
	defer pool.Stop()
	load, err := c.Load(LoadOptions{Rate: PaperInputRate})
	if err != nil {
		return nil, err
	}
	defer load.Stop()
	time.Sleep(measure)
	load.Stop()

	res := &FilteringResult{Verdict: *pool.Drain(load.Published, 10*time.Second)}
	res.EventsForwarded, res.EventsFiltered = c.Mids[len(c.Mids)-1].RelayStats()
	if total := res.EventsForwarded + res.EventsFiltered; total > 0 {
		res.SavedFraction = float64(res.EventsFiltered) / float64(total)
	}
	if err := res.Err(); err != nil {
		return res, fmt.Errorf("experiment: filtering: %w", err)
	}
	return res, nil
}
