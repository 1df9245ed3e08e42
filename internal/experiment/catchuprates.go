package experiment

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/vtime"
)

// CatchupRatesResult backs figures 5 and 6: per-reconnect catchup
// durations, and the advance rates of latestDelivered(p) and released(p)
// in tick-milliseconds per second of real time.
type CatchupRatesResult struct {
	CatchupDurations []time.Duration
	CatchupMean      time.Duration
	CatchupP95       time.Duration
	LDRate           *Series // figure 6 top
	RelRate          *Series // figure 6 bottom
	LDRateMean       float64
	RelRateMin       float64
	Verdict
}

// CatchupRatesParams configures a figures-5/6 run.
type CatchupRatesParams struct {
	Subscribers int           // 0 = 16
	Duration    time.Duration // 0 = 4s
	ChurnPeriod time.Duration // 0 = 1.5s
	ChurnDown   time.Duration // 0 = 100ms
	Sample      time.Duration // 0 = 100ms
}

// RunCatchupRates runs the 1-PHB/1-SHB disconnection experiment behind
// figures 5 and 6.
func RunCatchupRates(dir string, p CatchupRatesParams) (*CatchupRatesResult, error) {
	orDefault(&p.Subscribers, 16)
	orDefault(&p.Duration, 4*time.Second)
	orDefault(&p.ChurnPeriod, 1500*time.Millisecond)
	orDefault(&p.ChurnDown, 100*time.Millisecond)
	orDefault(&p.Sample, 100*time.Millisecond)
	res := &CatchupRatesResult{}
	var mu sync.Mutex
	caught := map[vtime.SubscriberID]time.Duration{}
	c, err := BuildCluster(dir, Topology{
		SHBs:    1,
		Pubends: PaperGroups,
		OnCaughtUp: func(sub vtime.SubscriberID, pub vtime.PubendID, took time.Duration) {
			mu.Lock()
			defer mu.Unlock()
			// A reconnect spawns one catchup stream per pubend;
			// record the slowest per (sub, reconnect) by keeping
			// the max seen since last report.
			caught[sub] = max(caught[sub], took)
		},
	})
	if err != nil {
		return nil, err
	}
	defer c.Close()

	pool, err := c.Pool(PoolOptions{
		N:          p.Subscribers,
		Disconnect: true,
		Period:     p.ChurnPeriod,
		Down:       p.ChurnDown,
	})
	if err != nil {
		return nil, err
	}
	defer pool.Stop()
	load, err := c.Load(LoadOptions{Rate: PaperInputRate})
	if err != nil {
		return nil, err
	}
	defer load.Stop()

	// Sample latestDelivered and released for pubend 1 (as in figure 6,
	// which plots 1 of the 4 pubends).
	start := time.Now()
	shb := c.SHBBroker(0)
	ld := NewRateSampler("latestDelivered_tickms_per_s", func() int64 { return shb.LatestDelivered(1).TickMillis() }, start)
	rel := NewRateSampler("released_tickms_per_s", func() int64 { return shb.Released(1).TickMillis() }, start)
	var catchups Histogram
	for deadline := time.Now().Add(p.Duration); time.Now().Before(deadline); {
		time.Sleep(p.Sample)
		now := time.Now()
		ld.Sample(now)
		rel.Sample(now)
		// Harvest completed catchups.
		mu.Lock()
		for sub, took := range caught {
			res.CatchupDurations = append(res.CatchupDurations, took)
			catchups.Observe(took)
			delete(caught, sub)
		}
		mu.Unlock()
	}
	load.Stop()
	res.LDRate = ld.Series()
	res.RelRate = rel.Series()
	res.LDRateMean = res.LDRate.Mean()
	res.RelRateMin = res.RelRate.Min()
	res.CatchupMean = catchups.Mean()
	res.CatchupP95 = catchups.Quantile(0.95)
	res.Verdict = *pool.Drain(load.Published, 20*time.Second)
	if err := res.Err(); err != nil {
		return res, fmt.Errorf("experiment: catchup rates: %w", err)
	}
	return res, nil
}

// Figures returns the run's figure series.
func (r *CatchupRatesResult) Figures() []*Series { return []*Series{r.LDRate, r.RelRate} }
