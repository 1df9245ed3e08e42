package experiment

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/filter"
	"repro/internal/logvol"
	"repro/internal/message"
	"repro/internal/metastore"
	"repro/internal/pfs"
	"repro/internal/tick"
	"repro/internal/vtime"
)

// ChurnParams configures the subscriber-churn scenario: a large durable
// subscriber population (the paper's "tens of thousands of subscribers per
// SHB") driven directly against one core engine while churn workers
// disconnect and reconnect subscribers mid-stream. Reconnects resume from
// Zipf-lagged checkpoint tokens, so a heavy tail of subscribers comes back
// far behind latestDelivered and must catch up from the PFS while live
// traffic keeps flowing — the exact contention the sharded engine and its
// catchup scheduler exist to bound.
type ChurnParams struct {
	// Subscribers is the durable population (0 = 50000).
	Subscribers int
	// Groups is the number of filter groups; each subscriber filters one
	// group and each event carries one, so per-event fan-out is
	// Subscribers/Groups (0 = 512).
	Groups int
	// SubShards is the engine's subscriber shard count (0 = engine
	// default, 1 = the single-lock baseline).
	SubShards int
	// CatchupWeight is the catchup scheduler quantum (0 = engine default).
	CatchupWeight int
	// Events published over the run (0 = 20000).
	Events int
	// BatchSize is events per knowledge batch — the live-path unit whose
	// latency is measured (0 = 64).
	BatchSize int
	// ChurnWorkers run disconnect/reconnect storms over disjoint
	// subscriber partitions (0 = 8).
	ChurnWorkers int
	// ChurnOps is the total number of detach+resume cycles (0 = 2000).
	ChurnOps int
	// ZipfS is the Zipf exponent of the per-subscriber ack lag (0 = 1.2;
	// must be > 1).
	ZipfS float64
	// ZipfMaxLag caps the ack lag in ticks (0 = 4096).
	ZipfMaxLag int
	// Seed makes the churn and lag sequences reproducible (0 = 1).
	Seed int64
}

func (p *ChurnParams) offsetSeed(i int64) { offsetSeed(&p.Seed, i) }

// ChurnResult reports the scenario outcome: live-path knowledge-batch
// latency percentiles observed while catchup streams drained concurrently,
// the post-publish drain time, and the exactly-once violation counters
// (all must be zero).
type ChurnResult struct {
	Subscribers int `json:"subscribers"`
	Groups      int `json:"groups"`
	SubShards   int `json:"subShards"`
	Events      int `json:"events"`
	ChurnOps    int `json:"churnOps"`

	// Delivered counts engine event deliveries (includes catchup
	// redelivery of unacked prefixes, so it exceeds the matched minimum).
	Delivered int64 `json:"delivered"`
	// Catchups is the number of catchup→constream switchovers completed.
	Catchups int64 `json:"catchups"`

	// LiveP50/P99/Max are per-knowledge-batch ingest latencies during the
	// publish phase (the live-path SLO while catchups drain).
	LiveP50 time.Duration `json:"liveP50"`
	LiveP99 time.Duration `json:"liveP99"`
	LiveMax time.Duration `json:"liveMax"`
	// PublishTime is the live phase duration; EventsPerSec is
	// Events/PublishTime.
	PublishTime  time.Duration `json:"publishTime"`
	EventsPerSec float64       `json:"eventsPerSec"`
	// DrainTime is how long the remaining catchup backlog took to drain
	// after the last publish.
	DrainTime time.Duration `json:"drainTime"`

	Lost       int64 `json:"lost"`
	Duplicates int64 `json:"duplicates"`
	Reordered  int64 `json:"reordered"`
	Gaps       int64 `json:"gaps"`
}

// churnSub is the client-side model of one durable subscriber: a cursor
// into its group's event sequence plus its checkpoint state. Deliveries
// arrive under the engine's shard lock while the acker and churn worker
// read from other goroutines, so every access takes mu.
type churnSub struct {
	mu       sync.Mutex
	group    int
	lag      vtime.Timestamp
	lastSeen vtime.Timestamp // delivery cursor (highest delivered ts)
	acked    vtime.Timestamp // checkpoint floor (lags lastSeen by lag)
	cursor   int             // next expected index into groupTS[group]

	dups, reorders, lost, gaps int64
}

// onDeliver validates one delivery against the model. groupTS is the
// ascending event-timestamp list of the subscriber's group.
func (c *churnSub) onDeliver(d message.Delivery, groupTS []vtime.Timestamp) {
	c.mu.Lock()
	defer c.mu.Unlock()
	switch d.Kind {
	case message.DeliverEvent:
		ts := d.Timestamp
		if ts <= c.lastSeen {
			if ts == c.lastSeen {
				c.dups++
			} else {
				c.reorders++
			}
			return
		}
		// Everything of the group in (lastSeen, ts) was skipped.
		for c.cursor < len(groupTS) && groupTS[c.cursor] < ts {
			c.lost++
			c.cursor++
		}
		if c.cursor < len(groupTS) && groupTS[c.cursor] == ts {
			c.cursor++
		}
		c.lastSeen = ts
	case message.DeliverSilence, message.DeliverGap:
		if d.Kind == message.DeliverGap {
			c.gaps++
		}
		// No matching events may exist at or below the silence horizon
		// that the cursor has not consumed.
		for c.cursor < len(groupTS) && groupTS[c.cursor] <= d.Timestamp {
			c.lost++
			c.cursor++
		}
		if d.Timestamp > c.lastSeen {
			c.lastSeen = d.Timestamp
		}
	}
}

// reconnect rewinds the model to the resume floor: the engine will
// redeliver everything after acked, which the client (having acked only up
// to there) must accept without counting duplicates.
func (c *churnSub) reconnect(groupTS []vtime.Timestamp) *vtime.CheckpointToken {
	c.mu.Lock()
	defer c.mu.Unlock()
	ct := vtime.NewCheckpointToken()
	ct.Set(churnPubend, c.acked)
	c.lastSeen = c.acked
	c.cursor = sort.Search(len(groupTS), func(i int) bool { return groupTS[i] > c.acked })
	return ct
}

const churnPubend = vtime.PubendID(1)

// RunSubscriberChurn runs the churn scenario against a freshly built engine
// under dir and verifies the exactly-once contract for every subscriber. It
// returns an error if any subscriber lost, duplicated, or reordered an
// event, or saw a spurious gap.
func RunSubscriberChurn(dir string, p ChurnParams) (*ChurnResult, error) {
	orDefault(&p.Subscribers, 50000)
	orDefault(&p.Groups, 512)
	orDefault(&p.Events, 20000)
	orDefault(&p.BatchSize, 64)
	orDefault(&p.ChurnWorkers, 8)
	orDefault(&p.ChurnOps, 2000)
	orDefault(&p.ZipfS, 1.2)
	orDefault(&p.ZipfMaxLag, 4096)
	orDefault(&p.Seed, 1)

	// Pre-generate the event stream: every tick carries one event, groups
	// assigned round-robin, so each subscriber's expected sequence is
	// known exactly.
	payload := make([]byte, PaperPayloadBytes)
	attrs := make([]filter.Attributes, p.Groups)
	for g := range attrs {
		attrs[g] = filter.Attributes{"group": filter.String(groupName(g))}
	}
	events := make([]*message.Event, p.Events)
	groupTS := make([][]vtime.Timestamp, p.Groups)
	for i := range events {
		ts := vtime.Timestamp(i + 1)
		g := i % p.Groups
		events[i] = &message.Event{
			Pubend:    churnPubend,
			Timestamp: ts,
			Attrs:     attrs[g],
			Payload:   payload,
		}
		groupTS[g] = append(groupTS[g], ts)
	}

	rng := rand.New(rand.NewSource(p.Seed)) //nolint:gosec // reproducible workload
	zipf := rand.NewZipf(rng, p.ZipfS, 1, uint64(p.ZipfMaxLag))
	subs := make([]*churnSub, p.Subscribers)
	for i := range subs {
		subs[i] = &churnSub{group: i % p.Groups, lag: vtime.Timestamp(zipf.Uint64())}
	}

	// Upstream stand-in: nacked spans are recorded and served back as
	// knowledge by the publisher loop (the engine's only serialized entry
	// point per pubend).
	var nackMu sync.Mutex
	var nackSpans []tick.Span

	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	vol, err := logvol.Open(filepath.Join(dir, "pfs.log"), logvol.Options{})
	if err != nil {
		return nil, err
	}
	defer vol.Close() //nolint:errcheck,gosec // shutdown
	meta, err := metastore.Open(filepath.Join(dir, "meta.wal"), metastore.Options{Sync: metastore.SyncNone})
	if err != nil {
		return nil, err
	}
	defer meta.Close() //nolint:errcheck,gosec // shutdown
	pf, err := pfs.New(pfs.Options{Volume: vol, Meta: meta, SyncEvery: 200})
	if err != nil {
		return nil, err
	}
	shb, err := core.New(core.Config{
		Meta:          meta,
		PFS:           pf,
		Pubends:       []vtime.PubendID{churnPubend},
		SubShards:     p.SubShards,
		CatchupWeight: p.CatchupWeight,
		Deliver: func(id vtime.SubscriberID, d message.Delivery) {
			c := subs[int(id)-1]
			c.onDeliver(d, groupTS[c.group])
		},
		SendNack: func(_ vtime.PubendID, spans []tick.Span) {
			nackMu.Lock()
			nackSpans = append(nackSpans, spans...)
			nackMu.Unlock()
		},
	})
	if err != nil {
		return nil, err
	}
	defer shb.Close()

	for i := range subs {
		if _, err := shb.Subscribe(&message.Subscribe{
			Subscriber: vtime.SubscriberID(i + 1),
			Filter:     fmt.Sprintf("group = %q", groupName(subs[i].group)),
		}); err != nil {
			return nil, fmt.Errorf("churn subscribe %d: %w", i+1, err)
		}
	}

	// serveNacks replays requested spans as knowledge. Must only run on
	// the publisher goroutine (OnKnowledge is serialized per pubend).
	serveNacks := func() {
		nackMu.Lock()
		spans := nackSpans
		nackSpans = nil
		nackMu.Unlock()
		for _, sp := range spans {
			if sp.Start > vtime.Timestamp(p.Events) || sp.End < 1 {
				continue
			}
			if sp.Start < 1 {
				sp.Start = 1
			}
			end := vtime.MinTS(sp.End, vtime.Timestamp(p.Events))
			know := &message.Knowledge{
				Pubend: churnPubend,
				Events: events[sp.Start-1 : end],
			}
			shb.OnKnowledge(know)
		}
	}

	stop := make(chan struct{})
	var helpers sync.WaitGroup

	// Ticker: housekeeping (floor aggregation, nack flush, silence) runs
	// concurrently with ingest, as the broker loop would drive it.
	helpers.Add(1)
	go func() {
		defer helpers.Done()
		for {
			select {
			case <-stop:
				return
			case <-time.After(2 * time.Millisecond):
				shb.Tick(time.Now()) //nolint:errcheck,gosec // surfaced by final Tick
			}
		}
	}()

	// Acker: continuously advances every subscriber's checkpoint to
	// lastSeen−lag, producing the Zipf-tailed resume floors.
	helpers.Add(1)
	go func() {
		defer helpers.Done()
		for {
			for i, c := range subs {
				if i%1024 == 0 {
					select {
					case <-stop:
						return
					default:
					}
				}
				c.mu.Lock()
				target := c.lastSeen - c.lag
				if target < 0 {
					target = 0
				}
				advanced := target > c.acked
				if advanced {
					c.acked = target
				}
				c.mu.Unlock()
				if advanced {
					ct := vtime.NewCheckpointToken()
					ct.Set(churnPubend, target)
					shb.OnAck(vtime.SubscriberID(i+1), ct)
				}
			}
			time.Sleep(500 * time.Microsecond)
		}
	}()

	// Churn workers: each owns a disjoint subscriber partition and runs
	// detach → resume-from-checkpoint cycles for its share of ChurnOps.
	churnErrs := make(chan error, p.ChurnWorkers)
	var churners sync.WaitGroup
	for w := 0; w < p.ChurnWorkers; w++ {
		churners.Add(1)
		go func(w int) {
			defer churners.Done()
			r := rand.New(rand.NewSource(p.Seed + int64(w) + 1)) //nolint:gosec // reproducible
			lo := w * p.Subscribers / p.ChurnWorkers
			hi := (w + 1) * p.Subscribers / p.ChurnWorkers
			ops := p.ChurnOps / p.ChurnWorkers
			for op := 0; op < ops; op++ {
				i := lo + r.Intn(hi-lo)
				id := vtime.SubscriberID(i + 1)
				shb.Detach(id)
				ct := subs[i].reconnect(groupTS[subs[i].group])
				if _, err := shb.Subscribe(&message.Subscribe{
					Subscriber: id,
					Filter:     fmt.Sprintf("group = %q", groupName(subs[i].group)),
					CT:         ct,
					Resume:     true,
				}); err != nil {
					churnErrs <- fmt.Errorf("churn resume %d: %w", id, err)
					return
				}
			}
		}(w)
	}

	// Live phase: publish the whole stream in batches, serving nacks
	// between batches, timing each ingest call.
	liveStart := time.Now()
	var samples Histogram
	for i := 0; i < p.Events; i += p.BatchSize {
		serveNacks()
		end := i + p.BatchSize
		if end > p.Events {
			end = p.Events
		}
		know := &message.Knowledge{Pubend: churnPubend, Events: events[i:end]}
		t0 := time.Now()
		shb.OnKnowledge(know)
		samples.Observe(time.Since(t0))
	}
	publishTime := time.Since(liveStart)

	churners.Wait()
	close(stop)
	helpers.Wait()
	select {
	case err := <-churnErrs:
		return nil, err
	default:
	}

	// Drain phase: keep serving nacks and ticking until every catchup
	// stream has switched over to the constream.
	drainStart := time.Now()
	deadline := drainStart.Add(2 * time.Minute)
	for {
		serveNacks()
		if err := shb.Tick(time.Now()); err != nil {
			return nil, fmt.Errorf("churn tick: %w", err)
		}
		shb.DrainCatchups()
		nackMu.Lock()
		pending := len(nackSpans)
		nackMu.Unlock()
		if shb.CatchupCount() == 0 && pending == 0 {
			break
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("churn drain stuck: %d catchups, %d pending nack spans",
				shb.CatchupCount(), pending)
		}
	}
	drainTime := time.Since(drainStart)

	stats := shb.Stats()
	res := &ChurnResult{
		Subscribers:  p.Subscribers,
		Groups:       p.Groups,
		SubShards:    shb.SubShardCount(),
		Events:       p.Events,
		ChurnOps:     p.ChurnOps,
		Delivered:    stats.EventsDelivered,
		Catchups:     stats.Switchovers,
		LiveP50:      samples.Quantile(0.50),
		LiveP99:      samples.Quantile(0.99),
		LiveMax:      samples.Max(),
		PublishTime:  publishTime,
		EventsPerSec: float64(p.Events) / publishTime.Seconds(),
		DrainTime:    drainTime,
	}
	// Every subscriber must have consumed its complete group sequence.
	for _, c := range subs {
		c.mu.Lock()
		c.lost += int64(len(groupTS[c.group]) - c.cursor)
		res.Lost += c.lost
		res.Duplicates += c.dups
		res.Reordered += c.reorders
		res.Gaps += c.gaps
		c.mu.Unlock()
	}
	if res.Lost != 0 || res.Duplicates != 0 || res.Reordered != 0 || res.Gaps != 0 {
		return res, fmt.Errorf("churn: exactly-once violated: lost=%d dup=%d reordered=%d gaps=%d",
			res.Lost, res.Duplicates, res.Reordered, res.Gaps)
	}
	return res, nil
}

// ChurnComparison runs one churn workload on the sharded engine and on the
// single-lock baseline.
type ChurnComparison struct {
	Sharded     *ChurnResult `json:"sharded"`
	SingleLock  *ChurnResult `json:"singleLock"`
	ThroughputX float64      `json:"throughputXvsSingleLock"` // sharded/single-lock events/s
}

// RunChurnComparison runs p with min(GOMAXPROCS, 8) subscriber shards —
// at least 2, so the sharded scheduler is exercised even on small
// machines — and again with one.
func RunChurnComparison(dir string, p ChurnParams) (*ChurnComparison, error) {
	p.SubShards = min(max(runtime.GOMAXPROCS(0), 2), 8)
	sharded, err := RunSubscriberChurn(filepath.Join(dir, "sharded"), p)
	if err != nil {
		return nil, err
	}
	p.SubShards = 1
	single, err := RunSubscriberChurn(filepath.Join(dir, "single"), p)
	if err != nil {
		return nil, err
	}
	return &ChurnComparison{sharded, single, sharded.EventsPerSec / single.EventsPerSec}, nil
}
