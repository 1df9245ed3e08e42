package experiment

import (
	"context"
	"fmt"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/client"
	"repro/internal/jms"
	"repro/internal/metastore"
	"repro/internal/vtime"
)

// JMSResult is one row of section 5.2: peak aggregate auto-acknowledge
// rate for a subscriber count and connection count.
type JMSResult struct {
	Subscribers   int
	Connections   int
	AggregateRate float64 // events consumed+committed per second
	DBCommitRate  float64 // database transactions per second
	UpdatesPerTx  float64 // batching factor
	// Verdict covers duplicates, reorders and gaps only: the run is
	// saturated by design, so consumers end with a backlog and lost
	// events are not assessed.
	Verdict
}

// JMSParams configures the auto-acknowledge experiment.
type JMSParams struct {
	Subscribers   int           // e.g. 25 or 200
	Connections   int           // paper: 4
	Measure       time.Duration // 0 = 2s
	InputRate     int           // 0 = enough to saturate (4× subscribers × 10)
	CommitLatency time.Duration // 0 = 300µs (DB2 + battery-backed cache)
}

// RunJMS measures JMS auto-acknowledge throughput (section 5.2).
func RunJMS(dir string, p JMSParams) (*JMSResult, error) {
	orDefault(&p.Measure, 2*time.Second)
	orDefault(&p.CommitLatency, 300*time.Microsecond)
	orDefault(&p.InputRate, PaperInputRate*4)
	c, err := BuildCluster(dir, Topology{SHBs: 1, Pubends: PaperGroups})
	if err != nil {
		return nil, err
	}
	defer c.Close()

	// The JMS CT database: a dedicated metastore with the modeled DB2
	// commit latency.
	meta, err := metastore.Open(filepath.Join(dir, "jmsct.meta"), metastore.Options{
		Sync:          metastore.SyncNone,
		CommitLatency: p.CommitLatency,
	})
	if err != nil {
		return nil, err
	}
	defer meta.Close() //nolint:errcheck
	store, err := jms.NewStore(jms.Options{Meta: meta, Connections: p.Connections})
	if err != nil {
		return nil, err
	}
	defer store.Close() //nolint:errcheck

	// The JMS consumers read their subscribers' deliveries themselves, so
	// this run keeps its own subscribers rather than a SubscriberPool.
	var subs []*client.Subscriber
	var consumers []*jms.AutoAckConsumer
	var wg sync.WaitGroup
	consumed := func() (n int64) {
		for _, ac := range consumers {
			n += ac.Consumed()
		}
		return n
	}
	for i := 0; i < p.Subscribers; i++ {
		sub, err := client.NewSubscriber(client.SubscriberOptions{
			ID:          vtime.SubscriberID(i + 1),
			Filter:      GroupFilter(i % PaperGroups),
			AckInterval: 25 * time.Millisecond,
			Buffer:      1 << 14,
		})
		if err != nil {
			return nil, err
		}
		if err := sub.Connect(context.Background(), c.Transport, c.SHBAddr(0)); err != nil {
			return nil, err
		}
		ac := jms.NewAutoAckConsumer(sub, store)
		subs = append(subs, sub)
		consumers = append(consumers, ac)
		wg.Add(1)
		go func() {
			defer wg.Done()
			ac.Run() //nolint:errcheck,gosec // exits on Stop/close
		}()
	}
	load, err := c.Load(LoadOptions{Rate: p.InputRate})
	if err != nil {
		return nil, err
	}
	defer load.Stop()

	time.Sleep(500 * time.Millisecond) // warmup
	before := consumed()
	commitsBefore, updatesBefore := store.Commits(), store.Updates()
	time.Sleep(p.Measure)
	after := consumed()
	commits, updates := store.Commits()-commitsBefore, store.Updates()-updatesBefore

	for _, ac := range consumers {
		ac.Stop()
	}
	wg.Wait()

	res := &JMSResult{
		Subscribers:   p.Subscribers,
		Connections:   p.Connections,
		AggregateRate: float64(after-before) / p.Measure.Seconds(),
		DBCommitRate:  float64(commits) / p.Measure.Seconds(),
	}
	if commits > 0 {
		res.UpdatesPerTx = float64(updates) / float64(commits)
	}
	tallies := make([]Tally, len(subs))
	for i, sub := range subs {
		n := consumers[i].Consumed() // saturated by design: owed what it got
		tallies[i] = tallyOf(sub, n, n, 0)
	}
	res.Verdict = *judge(tallies, false)
	if err := res.Err(); err != nil {
		return res, fmt.Errorf("experiment: jms: %w", err)
	}
	return res, nil
}
