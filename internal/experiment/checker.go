package experiment

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/client"
	"repro/internal/filter"
	"repro/internal/message"
	"repro/internal/overlay"
	"repro/internal/vtime"
)

// Paper workload constants (section 5.1): 800 events/s input distributed
// equally over 4 pubends; subscriptions arranged so each subscriber
// receives 200 events/s; 250-byte application payload (418 bytes with
// headers).
const (
	PaperInputRate    = 800
	PaperGroups       = 4
	PaperPayloadBytes = 250
)

// orDefault sets *v to d when *v is the zero value: the one idiom every
// Params struct uses for "0 means the default".
func orDefault[T comparable](v *T, d T) {
	var zero T
	if *v == zero {
		*v = d
	}
}

func groupName(g int) string { return fmt.Sprintf("g%d", g) }

// GroupFilter returns the subscription source for group g.
func GroupFilter(g int) string { return `group = "` + groupName(g) + `"` }

// LoadOptions configures a PublisherLoad.
type LoadOptions struct {
	// Rate is the publish rate in events/s.
	Rate int
	// Groups tags event i with group "g<i mod Groups>" (0 = PaperGroups),
	// so a subscriber of one group receives Rate/Groups events/s.
	Groups int
	// Payload bytes per event (0 = PaperPayloadBytes).
	Payload int
	// Pubends, when set, round-robins publishes explicitly over pubends
	// 1..Pubends; zero leaves the choice to the PHB.
	Pubends int
	// AutoReconnect keeps the publisher alive through root blips; a
	// publish refused while the link is down is skipped, not counted.
	// Without it every attempt counts, so a refused publish shows up as
	// a lost event.
	AutoReconnect bool
}

// PublisherLoad drives a constant-rate publisher and counts, per group,
// the events subscribers are owed: the "published" side of every
// exactly-once verdict.
type PublisherLoad struct {
	opts LoadOptions
	pub  *client.Publisher
	sent []atomic.Int64
	stop chan struct{}
	done chan struct{}
	once sync.Once
}

// StartPublisherLoad connects a publisher to addr and begins publishing.
func StartPublisherLoad(t overlay.Transport, addr string, o LoadOptions) (*PublisherLoad, error) {
	orDefault(&o.Groups, PaperGroups)
	orDefault(&o.Payload, PaperPayloadBytes)
	var popts []client.PublisherOption
	if o.AutoReconnect {
		popts = append(popts, client.WithAutoReconnect(), client.WithDialTimeout(500*time.Millisecond))
	}
	pub, err := client.NewPublisher(context.Background(), t, addr, "load", popts...)
	if err != nil {
		return nil, err
	}
	l := &PublisherLoad{
		opts: o,
		pub:  pub,
		sent: make([]atomic.Int64, o.Groups),
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	go l.run()
	return l, nil
}

func (l *PublisherLoad) run() {
	defer close(l.done)
	payload := make([]byte, l.opts.Payload)
	// Pace against wall time: on every tick, publish the deficit between
	// the target count and what has been sent, so the average rate holds
	// even when individual ticks are late or coalesced.
	ticker := time.NewTicker(time.Millisecond)
	defer ticker.Stop()
	start := time.Now()
	for seq := 0; ; {
		select {
		case <-ticker.C:
			for want := int(time.Since(start).Seconds() * float64(l.opts.Rate)); seq < want; seq++ {
				l.publish(seq, payload)
			}
		case <-l.stop:
			return
		}
	}
}

func (l *PublisherLoad) publish(seq int, payload []byte) {
	g := seq % l.opts.Groups
	var pubend vtime.PubendID
	if l.opts.Pubends > 0 {
		pubend = vtime.PubendID(seq%l.opts.Pubends + 1)
	}
	ev := message.Event{
		Attrs: filter.Attributes{
			"group": filter.String(groupName(g)),
			"seq":   filter.Int(int64(seq)),
		},
		Payload: payload,
	}
	if _, err := l.pub.PublishAsync(ev, pubend); err == nil || !l.opts.AutoReconnect {
		l.sent[g].Add(1)
	}
}

// Published reports the events owed to subscribers of group g, or of
// every group when g < 0.
func (l *PublisherLoad) Published(g int) int64 {
	if g >= 0 {
		return l.sent[g].Load()
	}
	var n int64
	for i := range l.sent {
		n += l.sent[i].Load()
	}
	return n
}

// Stop halts and disconnects the publisher; later calls do nothing.
func (l *PublisherLoad) Stop() {
	l.once.Do(func() {
		close(l.stop)
		<-l.done
		l.pub.Close() //nolint:errcheck,gosec // shutdown
	})
}

// PoolOptions configures a subscriber pool.
type PoolOptions struct {
	// N subscribers; subscriber i attaches to SHB address i mod len(addrs).
	N int
	// Groups to spread subscriptions over: subscriber i filters group
	// i mod Groups (0 = PaperGroups).
	Groups int
	// AllEvents subscribes everyone with the `true` filter instead.
	AllEvents bool
	// AutoReconnect supervises every subscriber link (500 ms dial
	// bound): for runs whose SHBs crash under their clients.
	AutoReconnect bool
	// Disconnect enables the paper's moderate-churn regime: each
	// subscriber independently disconnects every Period, stays down for
	// Down, then reconnects (paper: 300s / 5s; scale to taste).
	Disconnect bool
	Period     time.Duration
	Down       time.Duration
	// AckInterval for the clients (0 = 25ms, a scaled 250ms).
	AckInterval time.Duration
	// Seed randomizes disconnect phases deterministically.
	Seed int64
	// GapsExpected declares that early release may legitimately announce
	// gaps. The count then owes a subscriber that saw one nothing, since
	// it cannot tell which events the gap covered; the scenario checks
	// what that subscriber is owed after its gap.
	GapsExpected bool
	// OnEvent, when set, observes every event delivery (from the
	// subscriber's consumer goroutine).
	OnEvent func(sub int, d message.Delivery)
}

// SubscriberPool runs N durable subscribers against a set of SHBs,
// optionally cycling each through disconnect/reconnect periods. It is the
// harness's one exactly-once checker: it counts what every subscriber
// received, and Drain judges that against what was published.
type SubscriberPool struct {
	t     overlay.Transport
	addrs []string
	opts  PoolOptions
	subs  []*client.Subscriber
	recv  []atomic.Int64
	// outside counts events delivered outside a subscriber's filter.
	outside []atomic.Int64

	consumers sync.WaitGroup
	churners  sync.WaitGroup
	stop      chan struct{}
	churnStop chan struct{}
	stopOnce  sync.Once
	churnOnce sync.Once
}

// StartSubscriberPool connects the pool to the SHBs at addrs over t.
func StartSubscriberPool(t overlay.Transport, addrs []string, opts PoolOptions) (*SubscriberPool, error) {
	orDefault(&opts.Groups, PaperGroups)
	orDefault(&opts.AckInterval, 25*time.Millisecond)
	p := &SubscriberPool{
		t: t, addrs: addrs, opts: opts,
		recv:      make([]atomic.Int64, opts.N),
		outside:   make([]atomic.Int64, opts.N),
		stop:      make(chan struct{}),
		churnStop: make(chan struct{}),
	}
	for i := 0; i < opts.N; i++ {
		so := client.SubscriberOptions{
			ID:            vtime.SubscriberID(i + 1),
			Filter:        `true`,
			AckInterval:   opts.AckInterval,
			Buffer:        1 << 15,
			AutoReconnect: opts.AutoReconnect,
		}
		if !opts.AllEvents {
			so.Filter = GroupFilter(i % opts.Groups)
		}
		if opts.AutoReconnect {
			so.DialTimeout = 500 * time.Millisecond
		}
		sub, err := client.NewSubscriber(so)
		if err == nil {
			err = sub.Connect(context.Background(), t, p.addr(i))
		}
		if err != nil {
			p.Stop()
			return nil, err
		}
		p.subs = append(p.subs, sub)
		p.consumers.Add(1)
		go p.consume(i, sub)
	}
	if opts.Disconnect {
		rng := rand.New(rand.NewSource(opts.Seed + 1)) //nolint:gosec // schedule, not crypto
		for i := range p.subs {
			phase := time.Duration(rng.Int63n(int64(opts.Period)))
			p.churners.Add(1)
			go p.churn(i, phase)
		}
	}
	return p, nil
}

func (p *SubscriberPool) addr(i int) string { return p.addrs[i%len(p.addrs)] }

// group is subscriber i's filter group, or -1 for the `true` filter.
func (p *SubscriberPool) group(i int) int {
	if p.opts.AllEvents {
		return -1
	}
	return i % p.opts.Groups
}

// consume drains subscriber i's deliveries, counting events.
func (p *SubscriberPool) consume(i int, sub *client.Subscriber) {
	defer p.consumers.Done()
	var want filter.Value
	if g := p.group(i); g >= 0 {
		want = filter.String(groupName(g))
	}
	for {
		select {
		case d := <-sub.Deliveries():
			if d.Kind != message.DeliverEvent {
				continue
			}
			if want != (filter.Value{}) && d.Event.Attrs["group"] != want {
				p.outside[i].Add(1)
				continue
			}
			if p.opts.OnEvent != nil {
				p.opts.OnEvent(i, d)
			}
			p.recv[i].Add(1)
		case <-p.stop:
			return
		}
	}
}

// churn cycles subscriber i through disconnect/reconnect until Drain or
// Stop; it always leaves the subscriber connected.
func (p *SubscriberPool) churn(i int, phase time.Duration) {
	defer p.churners.Done()
	for wait := phase + p.opts.Period - p.opts.Down; sleepOr(p.churnStop, wait); wait = p.opts.Period - p.opts.Down {
		p.Disconnect(i)
		sleepOr(p.churnStop, p.opts.Down)
		p.Reconnect(i)
	}
}

// sleepOr sleeps d, returning false if stop closed first.
func sleepOr(stop chan struct{}, d time.Duration) bool {
	select {
	case <-time.After(d):
		return true
	case <-stop:
		return false
	}
}

// Disconnect detaches subscriber i (its subscription stays durable).
func (p *SubscriberPool) Disconnect(i int) {
	p.subs[i].Disconnect() //nolint:errcheck,gosec // orderly detach
}

// Reconnect reattaches subscriber i, retrying for up to two seconds while
// its SHB is restarting.
func (p *SubscriberPool) Reconnect(i int) {
	for attempt := 0; attempt < 400; attempt++ {
		if p.subs[i].Connect(context.Background(), p.t, p.addr(i)) == nil {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// Len reports the number of subscribers.
func (p *SubscriberPool) Len() int { return len(p.subs) }

// Received reports event deliveries to the subscribers for which
// include(i) holds (every subscriber when include is nil).
func (p *SubscriberPool) Received(include func(i int) bool) int64 {
	var n int64
	for i := range p.recv {
		if include == nil || include(i) {
			n += p.recv[i].Load()
		}
	}
	return n
}

// Judge returns the exactly-once verdict as of now: published(g) is the
// count of events published to group g (g = -1: to everyone).
func (p *SubscriberPool) Judge(published func(group int) int64) *Verdict {
	tallies := make([]Tally, len(p.subs))
	for i, sub := range p.subs {
		tallies[i] = tallyOf(sub, published(p.group(i)), p.recv[i].Load(), p.outside[i].Load())
	}
	return judge(tallies, p.opts.GapsExpected)
}

// Drain stops disconnect cycling, waits up to timeout for every
// subscriber to receive every event published to its group, and returns
// the verdict.
func (p *SubscriberPool) Drain(published func(group int) int64, timeout time.Duration) *Verdict {
	p.churnOnce.Do(func() { close(p.churnStop) })
	p.churners.Wait()
	deadline := time.Now().Add(timeout)
	for {
		v := p.Judge(published)
		if v.Lost == 0 || time.Now().After(deadline) {
			return v
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// Stop disconnects everything.
func (p *SubscriberPool) Stop() {
	p.churnOnce.Do(func() { close(p.churnStop) })
	p.stopOnce.Do(func() {
		p.churners.Wait()
		close(p.stop)
		p.consumers.Wait()
		for _, sub := range p.subs {
			sub.Disconnect() //nolint:errcheck,gosec // shutdown
		}
	})
}

// Tally is one subscriber's exactly-once record.
type Tally struct {
	Expected int64 // events published that its filter matches
	Received int64 // matching events it delivered to the application
	// Spurious are events it should never have seen: deliveries outside
	// its filter, and matching events beyond Expected.
	Spurious int64
	// Violations are deliveries the client rejected as duplicated or out
	// of order (timestamp not above its checkpoint).
	Violations int64
	Gaps       int64 // explicit gap notifications
}

func tallyOf(sub *client.Subscriber, expected, received, outside int64) Tally {
	_, _, gaps, violations := sub.Stats()
	return Tally{Expected: expected, Received: received, Spurious: outside + max(received-expected, 0),
		Violations: violations, Gaps: gaps}
}

// Verdict is the exactly-once judgement over a set of subscribers: every
// subscriber received every matching event and nothing else, none twice
// or out of order, and none saw a gap unless the scenario declares gaps
// expected.
type Verdict struct {
	Subs         []Tally `json:"subs"`
	Lost         int64   `json:"lost"`
	Spurious     int64   `json:"spurious"`
	Violations   int64   `json:"violations"`
	Gaps         int64   `json:"gaps"`
	GapsExpected bool    `json:"gapsExpected"`
}

func judge(subs []Tally, gapsExpected bool) *Verdict {
	v := &Verdict{Subs: subs, GapsExpected: gapsExpected}
	for _, t := range subs {
		if short := t.Expected - t.Received; short > 0 && !(gapsExpected && t.Gaps > 0) {
			v.Lost += short
		}
		v.Spurious += t.Spurious
		v.Violations += t.Violations
		v.Gaps += t.Gaps
	}
	return v
}

// Err reports a broken contract, naming the counts.
func (v *Verdict) Err() error {
	if v.Lost == 0 && v.Spurious == 0 && v.Violations == 0 && (v.Gaps == 0 || v.GapsExpected) {
		return nil
	}
	return fmt.Errorf("exactly-once violated: lost=%d spurious=%d dup/reorder=%d gaps=%d (gaps expected: %v) over %d subscribers %+v",
		v.Lost, v.Spurious, v.Violations, v.Gaps, v.GapsExpected, len(v.Subs), v.Subs)
}
