package experiment

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/client"
	"repro/internal/filter"
	"repro/internal/message"
	"repro/internal/telemetry"
)

// LatencyParams configures the end-to-end latency experiment.
type LatencyParams struct {
	// Hops is the broker chain length, PHB and SHB included (>= 2).
	Hops int
	// Events published per configuration.
	Events int
	// LogLatency is the PHB's forced-log latency (paper: 44 ms).
	LogLatency time.Duration
	// LinkLatency is added per overlay hop (paper: the residual ~6 ms
	// over 5 hops).
	LinkLatency time.Duration
}

// LatencyResult reproduces the paper's end-to-end latency claim (section
// 5, result 1): ~50 ms over a 5-hop broker network, of which ~44 ms is PHB
// event logging.
type LatencyResult struct {
	Hops             int
	Events           int
	WithLogging      LatencyStats // PHB forced-log latency enabled
	WithoutLogging   LatencyStats // pure network/broker path
	LoggingShareMean float64      // fraction of end-to-end mean due to logging
}

// LatencyStats summarizes one latency distribution.
type LatencyStats struct {
	Mean, P50, P95, Max time.Duration
}

// RunLatency measures publish→delivery latency over a Hops-node chain,
// with and without the PHB's forced-log latency.
func RunLatency(dir string, p LatencyParams) (*LatencyResult, error) {
	if p.Hops < 2 {
		return nil, fmt.Errorf("experiment: latency needs >= 2 hops, got %d", p.Hops)
	}
	res := &LatencyResult{Hops: p.Hops, Events: p.Events}
	var err error
	if res.WithLogging, err = runLatencyOnce(dir+"/log-true", p); err != nil {
		return nil, err
	}
	p.LogLatency = 0
	if res.WithoutLogging, err = runLatencyOnce(dir+"/log-false", p); err != nil {
		return nil, err
	}
	if res.WithLogging.Mean > 0 {
		res.LoggingShareMean = float64(res.WithLogging.Mean-res.WithoutLogging.Mean) /
			float64(res.WithLogging.Mean)
	}
	return res, nil
}

func runLatencyOnce(dir string, p LatencyParams) (LatencyStats, error) {
	c, err := BuildCluster(dir, Topology{
		SHBs:              1,
		Chain:             p.Hops - 2,
		Pubends:           1,
		PublishLogLatency: p.LogLatency,
		LinkLatency:       p.LinkLatency,
		TickInterval:      time.Millisecond,
	})
	if err != nil {
		return LatencyStats{}, err
	}
	defer c.Close()

	var hist Histogram
	tel := telemetry.Default().DurationHistogram("gryphon_experiment_e2e_latency_seconds",
		"End-to-end publish-to-deliver latency measured by the experiment harness.",
		telemetry.DefBuckets)
	var mu sync.Mutex
	sent := make(map[int64]time.Time, p.Events)
	pool, err := c.Pool(PoolOptions{
		N: 1, AllEvents: true, AckInterval: 20 * time.Millisecond,
		OnEvent: func(_ int, d message.Delivery) {
			now := time.Now()
			mu.Lock()
			t0 := sent[d.Event.Attrs["seq"].IntVal()]
			mu.Unlock()
			hist.Observe(now.Sub(t0))
			tel.ObserveDuration(now.Sub(t0))
		},
	})
	if err != nil {
		return LatencyStats{}, err
	}
	defer pool.Stop()

	pub, err := client.NewPublisher(context.Background(), c.Transport, c.PHBAddr(), "lat")
	if err != nil {
		return LatencyStats{}, err
	}
	defer pub.Close() //nolint:errcheck
	for i := 0; i < p.Events; i++ {
		mu.Lock()
		sent[int64(i)] = time.Now()
		mu.Unlock()
		if _, _, err := pub.Publish(message.Event{
			Attrs:   filter.Attributes{"seq": filter.Int(int64(i))},
			Payload: make([]byte, PaperPayloadBytes),
		}); err != nil {
			return LatencyStats{}, err
		}
		// Modest inter-publish gap so latencies do not queue behind
		// each other (the paper measures at low rate).
		time.Sleep(2 * time.Millisecond)
	}
	published := func(int) int64 { return int64(p.Events) }
	if err := pool.Drain(published, 30*time.Second).Err(); err != nil {
		return LatencyStats{}, fmt.Errorf("experiment: latency: %w", err)
	}
	return LatencyStats{
		Mean: hist.Mean(),
		P50:  hist.Quantile(0.5),
		P95:  hist.Quantile(0.95),
		Max:  hist.Max(),
	}, nil
}
