package experiment

import (
	"fmt"
	"time"

	"repro/internal/pubend"
	"repro/internal/vtime"
)

// EarlyReleaseResult backs the gap-notification behavior of section 3's
// PHB-controlled policy.
type EarlyReleaseResult struct {
	Published     int64
	GapsDelivered int64
	EventsAfter   int64 // events delivered after the gap (live stream intact)
	PubendEvents  int   // events still retained at the pubend
	Verdict
}

// RunEarlyRelease demonstrates administratively-bounded retention: a
// misbehaving (long-disconnected) subscriber receives an explicit gap, and
// the pubend's storage is reclaimed despite the outstanding subscription.
// The verdict declares gaps expected, so the count owes the lagging
// subscriber nothing; it is checked here to receive at least every event
// published after its gap, while the connected one is owed every event.
func RunEarlyRelease(dir string, retain time.Duration) (*EarlyReleaseResult, error) {
	orDefault(&retain, 100*time.Millisecond)
	c, err := BuildCluster(dir, Topology{
		SHBs:           1,
		Pubends:        1,
		Policy:         pubend.MaxRetain{Retain: vtime.Timestamp(retain / time.Microsecond)},
		EventCacheSize: 8,
		RelayCacheSize: 8,
	})
	if err != nil {
		return nil, err
	}
	defer c.Close()

	// Subscriber 0 stays connected; subscriber 1 lags far behind.
	const lagging = 1
	pool, err := c.Pool(PoolOptions{N: 2, Groups: 1, AckInterval: 10 * time.Millisecond, GapsExpected: true})
	if err != nil {
		return nil, err
	}
	defer pool.Stop()
	pool.Disconnect(lagging)

	load, err := c.Load(LoadOptions{Rate: 400, Groups: 1})
	if err != nil {
		return nil, err
	}
	defer load.Stop()
	time.Sleep(2*retain + 200*time.Millisecond)
	load.Stop()
	time.Sleep(100 * time.Millisecond)

	pool.Reconnect(lagging)
	gaps := func() int64 { return pool.Judge(load.Published).Subs[lagging].Gaps }
	if !waitFor(10*time.Second, func() bool { return gaps() > 0 }) {
		return nil, fmt.Errorf("experiment: no gap observed")
	}
	res := &EarlyReleaseResult{Published: load.Published(-1), GapsDelivered: gaps()}
	// Live events still flow after the gap.
	onLagging := func(i int) bool { return i == lagging }
	before := pool.Received(onLagging)
	load2, err := c.Load(LoadOptions{Rate: 200, Groups: 1})
	if err != nil {
		return nil, err
	}
	defer load2.Stop()
	if !waitFor(10*time.Second, func() bool { return pool.Received(onLagging) > before }) {
		return nil, fmt.Errorf("experiment: no live delivery after gap")
	}
	load2.Stop()
	published := func(g int) int64 { return load.Published(g) + load2.Published(g) }
	res.Verdict = *pool.Drain(published, 10*time.Second)
	live := load2.Published(-1)
	waitFor(10*time.Second, func() bool { return pool.Received(onLagging)-before >= live })
	res.EventsAfter = pool.Received(onLagging) - before
	res.PubendEvents = c.PHB.Pubend(1).EventCount()
	if err := res.Err(); err != nil {
		return res, fmt.Errorf("experiment: early release: %w", err)
	}
	if res.EventsAfter < live {
		return res, fmt.Errorf("experiment: early release: lagging subscriber got %d events after its gap, %d were published",
			res.EventsAfter, live)
	}
	return res, nil
}

// waitFor polls cond every 5 ms until it holds or timeout passes.
func waitFor(timeout time.Duration, cond func() bool) bool {
	for deadline := time.Now().Add(timeout); !cond(); time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			return false
		}
	}
	return true
}
