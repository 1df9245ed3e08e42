package experiment

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/vtime"
)

// FailoverResult backs figures 7 and 8 and the paper's result 3: SHB
// failure and recovery with every subscriber in catchup simultaneously.
type FailoverResult struct {
	LDSeries  *Series // latestDelivered(p1), tick ms (figure 7 top)
	RelSeries *Series // released(p1), tick ms (figure 7 bottom)
	// MachineRates is the per-client-machine delivery rate series
	// (figure 8 top).
	MachineRates []*Series

	NormalLDRate    float64 // tick-ms/s before the crash
	RecoveryLDRate  float64 // tick-ms/s while the constream nacks (≈5× normal)
	CatchupDur      []time.Duration
	CatchupMean     time.Duration
	NormalRate      float64 // SHB aggregate events/s before crash
	CatchupRate     float64 // SHB aggregate events/s during subscriber catchup
	NackTicksWanted int64
	NackTicksSent   int64
	// CacheHits/CacheMisses over the whole run: catchup event fetches
	// served locally by the SHB cache versus sent upstream — the PHB
	// shielding of figure 8's bottom plot.
	CacheHits   int64
	CacheMisses int64
	Verdict
}

// FailoverParams configures the SHB crash experiment; defaults scale the
// paper's 25 s outage to 500 ms.
type FailoverParams struct {
	Subscribers int           // 0 = 40 (paper)
	Machines    int           // 0 = 5 client machines (paper)
	Down        time.Duration // 0 = 500ms (paper: 25s)
	PostRun     time.Duration // 0 = 3s of catchup observation
	PreRun      time.Duration // 0 = 1s of normal running
	Sample      time.Duration // 0 = 100ms
	ReadBufferQ int           // PFS read buffer (paper: 5000)
}

// RunFailover runs the SHB crash-and-recovery experiment.
func RunFailover(dir string, p FailoverParams) (*FailoverResult, error) {
	orDefault(&p.Subscribers, 40)
	orDefault(&p.Machines, 5)
	orDefault(&p.Down, 500*time.Millisecond)
	orDefault(&p.PostRun, 3*time.Second)
	orDefault(&p.PreRun, time.Second)
	orDefault(&p.Sample, 100*time.Millisecond)

	res := &FailoverResult{}
	var mu sync.Mutex
	var catchups Histogram
	c, err := BuildCluster(dir, Topology{
		SHBs:        1,
		Pubends:     PaperGroups,
		ReadBufferQ: p.ReadBufferQ,
		OnCaughtUp: func(sub vtime.SubscriberID, pub vtime.PubendID, took time.Duration) {
			mu.Lock()
			res.CatchupDur = append(res.CatchupDur, took)
			mu.Unlock()
			catchups.Observe(took)
		},
	})
	if err != nil {
		return nil, err
	}
	defer c.Close()
	pool, err := c.Pool(PoolOptions{N: p.Subscribers})
	if err != nil {
		return nil, err
	}
	defer pool.Stop()
	load, err := c.Load(LoadOptions{Rate: PaperInputRate})
	if err != nil {
		return nil, err
	}
	defer load.Stop()

	// Subscribers spread over "machines": machine m's delivery rate sums
	// subscribers i ≡ m (mod Machines) (figure 8 top).
	start := time.Now()
	ldSeries := NewSeries("latestDelivered_tickms")
	relSeries := NewSeries("released_tickms")
	var machines []*RateSampler
	for m := 0; m < p.Machines; m++ {
		onMachine := func(i int) bool { return i%p.Machines == m }
		machines = append(machines, NewRateSampler(fmt.Sprintf("machine%d_events_per_s", m+1),
			func() int64 { return pool.Received(onMachine) }, start))
	}
	sampleAll := func() {
		now := time.Now()
		t := now.Sub(start).Seconds()
		shb := c.SHBBroker(0)
		ldSeries.Append(t, float64(shb.LatestDelivered(1).TickMillis()))
		relSeries.Append(t, float64(shb.Released(1).TickMillis()))
		for _, ms := range machines {
			ms.Sample(now)
		}
	}
	sampleFor := func(d time.Duration) {
		for deadline := time.Now().Add(d); time.Now().Before(deadline); {
			time.Sleep(p.Sample)
			sampleAll()
		}
	}

	// Phase 1: normal running.
	sampleFor(p.PreRun)
	res.NormalLDRate = ldSeries.Slope(p.PreRun.Seconds() / 2)
	res.NormalRate = float64(pool.Received(nil)) / time.Since(start).Seconds()

	// Phase 2: crash the SHB. Client connections die with it.
	c.CrashSHB(0)
	sampleFor(p.Down)

	// Phase 3: restart, and delay subscriber reconnection until the
	// constream has recovered to the head of the stream (the paper's
	// deliberate delay separating constream nacking from catchup
	// nacking).
	if err := c.RestartSHB(0); err != nil {
		return nil, err
	}
	recoverStart := time.Now()
	ld0 := c.SHBBroker(0).LatestDelivered(1)
	for {
		time.Sleep(p.Sample / 2)
		sampleAll()
		lag := c.PHB.Pubend(1).Emitted() - c.SHBBroker(0).LatestDelivered(1)
		if lag < vtime.Timestamp(50*vtime.TicksPerMilli) {
			break
		}
		if time.Since(recoverStart) > 30*time.Second {
			return nil, fmt.Errorf("experiment: constream recovery stalled (lag %d)", lag)
		}
	}
	// Figure 7's steep segment: tick-ms recovered per second of real
	// time over exactly the restart→caught-up window.
	ld1 := c.SHBBroker(0).LatestDelivered(1)
	if elapsed := time.Since(recoverStart).Seconds(); elapsed > 0 {
		res.RecoveryLDRate = float64(ld1.TickMillis()-ld0.TickMillis()) / elapsed
	}

	// Phase 4: reconnect every subscriber; all enter catchup at once.
	for i := 0; i < pool.Len(); i++ {
		pool.Reconnect(i)
	}
	catchBefore := pool.Received(nil)
	sampleFor(p.PostRun)
	res.CatchupRate = float64(pool.Received(nil)-catchBefore) / p.PostRun.Seconds()
	load.Stop()

	res.LDSeries = ldSeries
	res.RelSeries = relSeries
	for _, ms := range machines {
		res.MachineRates = append(res.MachineRates, ms.Series())
	}
	res.Verdict = *pool.Drain(load.Published, 20*time.Second)
	st := c.SHBBroker(0).SHBStats()
	res.NackTicksWanted = st.NackTicksWanted
	res.NackTicksSent = st.NackTicksSent
	res.CacheHits = st.CacheHits
	res.CacheMisses = st.CacheMisses
	res.CatchupMean = catchups.Mean()
	if err := res.Err(); err != nil {
		return res, fmt.Errorf("experiment: failover: %w", err)
	}
	return res, nil
}

// Figures returns the run's figure series.
func (r *FailoverResult) Figures() []*Series {
	return append([]*Series{r.LDSeries, r.RelSeries}, r.MachineRates...)
}
