package experiment

import (
	"fmt"
	"time"
)

// ScalabilityResult is one bar of figure 4.
type ScalabilityResult struct {
	SHBs          int // 0 = single combined broker
	Subscribers   int
	Disconnect    bool
	InputRate     int     // events/s published
	AggregateRate float64 // events/s delivered across all subscribers
	PerSubRate    float64
	Verdict
}

// ScalabilityParams configures a figure-4 run.
type ScalabilityParams struct {
	SHBs         int // 0 = single combined broker
	SubsPerSHB   int
	InputRate    int           // 0 = PaperInputRate
	Warmup       time.Duration // 0 = 500ms
	Measure      time.Duration // 0 = 2s
	Disconnect   bool
	ChurnPeriod  time.Duration // 0 = 3s   (paper: 300s, scaled 1:100)
	ChurnDown    time.Duration // 0 = 50ms (paper: 5s, scaled 1:100)
	Intermediate bool
	TickInterval time.Duration
}

// RunScalability measures aggregate delivery rate for one figure-4
// configuration, then drains and judges every subscriber.
func RunScalability(dir string, p ScalabilityParams) (*ScalabilityResult, error) {
	orDefault(&p.InputRate, PaperInputRate)
	orDefault(&p.Warmup, 500*time.Millisecond)
	orDefault(&p.Measure, 2*time.Second)
	orDefault(&p.ChurnPeriod, 3*time.Second)
	orDefault(&p.ChurnDown, 50*time.Millisecond)
	c, err := BuildCluster(dir, Topology{
		SHBs:         p.SHBs,
		Intermediate: p.Intermediate && p.SHBs > 1,
		Pubends:      PaperGroups,
		TickInterval: p.TickInterval,
	})
	if err != nil {
		return nil, err
	}
	defer c.Close()

	pool, err := c.Pool(PoolOptions{
		N:          p.SubsPerSHB * len(c.SHBAddrs()),
		Disconnect: p.Disconnect,
		Period:     p.ChurnPeriod,
		Down:       p.ChurnDown,
	})
	if err != nil {
		return nil, err
	}
	defer pool.Stop()
	load, err := c.Load(LoadOptions{Rate: p.InputRate})
	if err != nil {
		return nil, err
	}
	defer load.Stop()

	time.Sleep(p.Warmup)
	before := pool.Received(nil)
	time.Sleep(p.Measure)
	after := pool.Received(nil)
	load.Stop()

	res := &ScalabilityResult{
		SHBs:          p.SHBs,
		Subscribers:   pool.Len(),
		Disconnect:    p.Disconnect,
		InputRate:     p.InputRate,
		AggregateRate: float64(after-before) / p.Measure.Seconds(),
		PerSubRate:    float64(after-before) / p.Measure.Seconds() / float64(pool.Len()),
		Verdict:       *pool.Drain(load.Published, 20*time.Second),
	}
	if err := res.Err(); err != nil {
		return res, fmt.Errorf("experiment: scalability: %w", err)
	}
	return res, nil
}
