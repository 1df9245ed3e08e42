package experiment

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/client"
	"repro/internal/filter"
	"repro/internal/message"
	"repro/internal/topology"
	"repro/internal/vtime"
)

// ShardThroughputParams configures a multi-pubend saturation run used to
// compare the sharded broker event loop against the serialized baseline
// (Shards = 1). Unlike the paced figure-4 workload, every pubend is driven
// as fast as its publish window allows, so broker-side routing is the
// bottleneck and the shard count is the variable under test.
type ShardThroughputParams struct {
	// Pubends hosted by the PHB, each flooded by a dedicated publisher
	// (0 = 4; the paper's pubend count and the minimum for the
	// experiment to exercise cross-shard routing).
	Pubends int
	// Shards is the per-broker event-loop shard count (0 = GOMAXPROCS,
	// 1 = the serialized single-loop baseline).
	Shards int
	// Window is the number of outstanding async publishes each publisher
	// keeps in flight (0 = 64).
	Window int
	// Payload bytes per event (0 = PaperPayloadBytes).
	Payload int
	// Warmup before the measurement window opens (0 = 300ms).
	Warmup time.Duration
	// Measure is the measurement window (0 = 1s).
	Measure time.Duration
	// TCP runs the cluster over loopback TCP, exercising the framed
	// write-coalescing wire path end-to-end.
	TCP bool
	// SHBs downstream of the PHB (0 = 1).
	SHBs int
}

// ShardThroughputResult is one row of the shard-scaling comparison.
type ShardThroughputResult struct {
	Shards  int
	Pubends int
	// PublishRate is acked publishes/s across all pubends during the
	// measurement window; DeliveryRate is events/s delivered across all
	// subscribers.
	PublishRate  float64
	DeliveryRate float64
	Published    int64
	Delivered    int64
	Verdict
}

// RunShardThroughput floods every pubend through a windowed async
// publisher while one durable subscriber per pubend drains the matching
// group, and reports aggregate publish and delivery rates. Exactly-once is
// judged as in every other experiment: a faster-but-wrong shard
// configuration must fail, not win.
func RunShardThroughput(dir string, p ShardThroughputParams) (*ShardThroughputResult, error) {
	orDefault(&p.Pubends, 4)
	orDefault(&p.Window, 64)
	orDefault(&p.Payload, PaperPayloadBytes)
	orDefault(&p.Warmup, 300*time.Millisecond)
	orDefault(&p.Measure, time.Second)
	orDefault(&p.SHBs, 1)
	c, err := BuildCluster(dir, Topology{
		SHBs:    p.SHBs,
		Pubends: p.Pubends,
		Tuning:  topology.Tuning{Shards: p.Shards},
		TCP:     p.TCP,
	})
	if err != nil {
		return nil, err
	}
	defer c.Close()
	pool, err := c.Pool(PoolOptions{N: p.Pubends, Groups: p.Pubends})
	if err != nil {
		return nil, err
	}
	defer pool.Stop()

	// Publisher i floods pubend i+1 with group i, so exactly subscriber i
	// matches; acked[i] is what that subscriber is owed.
	acked := make([]atomic.Int64, p.Pubends)
	totalAcked := func() (n int64) {
		for i := range acked {
			n += acked[i].Load()
		}
		return n
	}
	stop := make(chan struct{})
	errs := make(chan error, p.Pubends)
	for i := 0; i < p.Pubends; i++ {
		go func() { errs <- floodPubend(c, i, p, stop, &acked[i]) }()
	}

	time.Sleep(p.Warmup)
	ackedBefore, recvBefore := totalAcked(), pool.Received(nil)
	time.Sleep(p.Measure)
	ackedAfter, recvAfter := totalAcked(), pool.Received(nil)
	close(stop)
	for i := 0; i < p.Pubends; i++ {
		if ferr := <-errs; ferr != nil && err == nil {
			err = ferr
		}
	}
	if err != nil {
		return nil, err
	}
	res := &ShardThroughputResult{
		Shards:       c.PHB.Shards(),
		Pubends:      p.Pubends,
		PublishRate:  float64(ackedAfter-ackedBefore) / p.Measure.Seconds(),
		DeliveryRate: float64(recvAfter-recvBefore) / p.Measure.Seconds(),
		Published:    ackedAfter,
		Delivered:    recvAfter,
		Verdict:      *pool.Drain(func(g int) int64 { return acked[g].Load() }, 20*time.Second),
	}
	if err := res.Err(); err != nil {
		return res, fmt.Errorf("shard throughput: %w", err)
	}
	return res, nil
}

// floodPubend keeps p.Window async publishes outstanding against pubend
// i+1 until stop closes, counting acks. Events carry group i so exactly one
// pool subscriber matches them.
func floodPubend(c *Cluster, i int, p ShardThroughputParams, stop chan struct{}, acked *atomic.Int64) error {
	target := vtime.PubendID(i + 1)
	pub, err := client.NewPublisher(context.Background(), c.Transport, c.PHBAddr(), fmt.Sprintf("flood%d", target))
	if err != nil {
		return err
	}
	defer pub.Close() //nolint:errcheck,gosec // shutdown
	ev := message.Event{
		Attrs:   filter.Attributes{"group": filter.String(groupName(i))},
		Payload: make([]byte, p.Payload),
	}
	inflight := make(chan (<-chan *message.PublishAck), p.Window)
	for {
		select {
		case <-stop:
			// Drain the window so every counted ack corresponds to a
			// logged publish.
			close(inflight)
			for ch := range inflight {
				if _, ok := <-ch; ok {
					acked.Add(1)
				}
			}
			return nil
		default:
		}
		ch, err := pub.PublishAsync(ev, target)
		if err != nil {
			return fmt.Errorf("flood pubend %d: %w", target, err)
		}
		select {
		case inflight <- ch:
		default:
			// Window full: wait for the oldest ack before admitting the
			// new publish.
			if _, ok := <-(<-inflight); !ok {
				return fmt.Errorf("flood pubend %d: connection lost", target)
			}
			acked.Add(1)
			inflight <- ch
		}
	}
}
