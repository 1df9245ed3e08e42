package main

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/message"
)

// epoch anchors every timestamp the benchmark takes; now is monotonic
// nanoseconds since it (never 0 once the program runs).
var epoch = time.Now()

func now() int64 { return int64(time.Since(epoch)) + 1 }

// evRec is the benchmark's record of one event. Publishers write it;
// subscriber goroutines read sent to detect catchup completion and
// sched/acked for latencies; the checker reads everything after the run.
type evRec struct {
	sched, sent, acked atomic.Int64 // acked 0: not (yet) acked
	ts                 atomic.Uint64
	pubend             atomic.Uint32
	failed             atomic.Bool
	group, price       int // set before publishing, read after the run
}

// evTable holds the record of every event id; ids are handed out in
// order and the table is sized for the whole run up front.
type evTable struct {
	recs []evRec
	next atomic.Uint32 // ids handed out
}

func (t *evTable) at(id uint32) *evRec { return &t.recs[id] }

// subState is one durable subscriber and what the benchmark saw of it.
type subState struct {
	sub    *repro.DurableSubscriber
	shb    int
	cohort bool

	mu        sync.Mutex
	log       []received
	gapNotes  int
	live      bool  // connected and caught up: deliveries count toward latency
	liveSince int64 // deliveries of events scheduled before this don't
	// reattachAt is the latest reattach call while attached, 0 while
	// detached. The first event published after it to arrive shows the
	// backlog has drained, and the subscriber counts as live again.
	reattachAt int64
	catchups   []catchupRec
	lat        []latSample // deliver latencies of the current phase
	ackToDlv   []int64     // traced: durable ack → receipt
	recvWin    []int       // receipts per sub-window of the live window
}

type catchupRec struct {
	phase     int
	reattach  int64
	connectNS int64
}

// bench drives one workload over one tree.
type bench struct {
	w       workload
	seed    int64
	filters []subFilter
	cohort  []bool

	tr   *tree
	pubs []*repro.Publisher
	subs []*subState

	ev evTable
	// Preallocated receipt logs and latency samples, one per subscriber.
	logs [][]received
	lats [][]latSample
	// cur is the phase under way, read by subscriber goroutines to
	// classify receipts; a phase's fields are fixed before it is stored.
	cur    atomic.Pointer[phase]
	spans  atomic.Pointer[spanLog] // nil when not tracing
	ackWG  sync.WaitGroup
	stop   chan struct{}
	consWG sync.WaitGroup
}

// newBench prepares a run of w that loads the tree for d after the
// warm-up load.
func newBench(w workload, seed int64, d time.Duration) *bench {
	b := &bench{w: w, seed: seed, filters: w.filters(seed), cohort: w.cohort(seed)}
	// Warm-up events (one per distinct filter at most), the warm-up load
	// and d of load.
	b.ev.recs = make([]evRec, len(b.filters)+int(w.rate*(warmLoad+d).Seconds())+1)
	// The receipt logs are sized for the whole run up front too (a
	// quarter over each filter's expected share), so the heap, and with
	// it the GC rate, does not drift while the run is measured.
	b.logs = make([][]received, len(b.filters))
	b.lats = make([][]latSample, len(b.filters))
	for i, f := range b.filters {
		n := int(1.25*float64(len(b.ev.recs))*float64(f.hi)/priceRange/numGroups) + 64
		b.logs[i], b.lats[i] = make([]received, 0, n), make([]latSample, 0, n)
	}
	return b
}

// setup builds the tree, connects nproc publishers over TCP and the
// population in-process, and publishes warm-up events until every
// subscriber has received one. It returns the time that took.
func (b *bench) setup(ctx context.Context, dir string) (time.Duration, error) {
	start := time.Now()
	b.stop = make(chan struct{})
	tr, err := startTree(ctx, dir)
	if err != nil {
		return 0, err
	}
	b.tr = tr
	for i := 0; i < runtime.NumCPU(); i++ {
		p, err := repro.NewPublisher(ctx, repro.TCPTransport{}, tr.phb.BoundAddr(), "bench-pub-"+strconv.Itoa(i))
		if err != nil {
			return 0, fmt.Errorf("bench: publisher: %w", err)
		}
		b.pubs = append(b.pubs, p)
	}
	b.subs = make([]*subState, len(b.filters))
	for i, f := range b.filters {
		sub, err := repro.NewDurableSubscriber(repro.SubscriberOptions{
			ID:     repro.SubscriberID(i + 1),
			Filter: f.source(),
			// Each subscriber has a goroutine draining its channel; a
			// small buffer keeps 1000 of them from pinning megabytes.
			Buffer: 512,
		})
		if err != nil {
			return 0, fmt.Errorf("bench: subscriber: %w", err)
		}
		b.subs[i] = &subState{sub: sub, shb: i % len(tr.shbs), cohort: b.cohort[i], live: true,
			log: b.logs[i], lat: b.lats[i]}
	}
	if err := b.forEachSub(b.subs, func(s *subState) error {
		return s.sub.Connect(ctx, tr.inproc, tr.shbs[s.shb].BoundAddr())
	}); err != nil {
		return 0, fmt.Errorf("bench: connect: %w", err)
	}
	for _, s := range b.subs {
		b.consWG.Add(1)
		go b.consume(s)
	}
	// Warm-up: one event per distinct filter, all in flight at once.
	warm := warmupAttrs(b.filters)
	var acks sync.WaitGroup
	for _, a := range warm {
		id := b.ev.next.Add(1) - 1
		r := b.ev.at(id)
		r.group, r.price = a[0], a[1]
		t := now()
		r.sched.Store(t)
		r.sent.Store(t)
		ch, err := b.pubs[0].PublishAsync(newEvent(id, a[0], a[1]), 0)
		if err != nil {
			return 0, fmt.Errorf("bench: warm-up publish: %w", err)
		}
		acks.Add(1)
		go func() {
			defer acks.Done()
			b.recordAck(r, id, ch)
		}()
	}
	acks.Wait()
	for id := uint32(0); id < b.ev.next.Load(); id++ {
		if b.ev.at(id).failed.Load() {
			return 0, fmt.Errorf("bench: warm-up publish %d was not acked", id)
		}
	}
	want := make([]int, len(b.subs))
	for s, f := range b.filters {
		for _, a := range warm {
			if f.match(a[0], a[1]) {
				want[s]++
			}
		}
	}
	if err := b.waitDelivered(ctx, want, 30*time.Second); err != nil {
		return 0, fmt.Errorf("bench: warm-up: %w", err)
	}
	return time.Since(start), nil
}

// forEachSub runs fn over subs with 8 goroutines and returns the first
// error. A cohort of 500 reattaches within about 100 ms this way: a storm,
// yet not one that makes the storm's own timing the dominant noise.
func (b *bench) forEachSub(subs []*subState, fn func(*subState) error) error {
	work := make(chan *subState)
	errs := make(chan error, 1)
	var wg sync.WaitGroup
	for i := 0; i < min(8, len(subs)); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for s := range work {
				if err := fn(s); err != nil {
					select {
					case errs <- err:
					default:
					}
				}
			}
		}()
	}
	for _, s := range subs {
		work <- s
	}
	close(work)
	wg.Wait()
	select {
	case err := <-errs:
		return err
	default:
		return nil
	}
}

// teardown stops clients and brokers and removes the data. Calling it
// again does nothing.
func (b *bench) teardown() {
	// Subscribers go first, while their consumers still drain the
	// delivery channels the SHB may be blocked on.
	for _, s := range b.subs {
		if s != nil && s.sub.Connected() {
			s.sub.Disconnect()
		}
	}
	if b.stop != nil {
		close(b.stop)
		b.consWG.Wait()
		b.stop = nil
	}
	for _, p := range b.pubs {
		p.Close()
	}
	b.pubs = nil
	if b.tr != nil {
		b.tr.close()
		b.tr = nil
	}
}

func (b *bench) consume(s *subState) {
	defer b.consWG.Done()
	ch := s.sub.Deliveries()
	for {
		select {
		case d := <-ch:
			b.receive(s, d)
		case <-b.stop:
			return
		}
	}
}

func (b *bench) receive(s *subState, d repro.Delivery) {
	t := now()
	s.mu.Lock()
	defer s.mu.Unlock()
	if d.Kind == repro.DeliverGap {
		s.gapNotes++
		return
	}
	if d.Kind != repro.DeliverEvent || d.Event == nil || len(d.Event.Payload) < 4 {
		return
	}
	id := binary.LittleEndian.Uint32(d.Event.Payload)
	s.log = append(s.log, received{id: id, pubend: uint32(d.Pubend), ts: uint64(d.Timestamp), at: t})
	if id >= b.ev.next.Load() {
		return // the checker reports it
	}
	r := b.ev.at(id)
	ph := b.cur.Load()
	if ph == nil {
		return // setup and warm-up: nothing is measured
	}
	if i := ph.window(t); i >= 0 && i < len(s.recvWin) {
		s.recvWin[i]++
	}
	if !s.live {
		if s.reattachAt > 0 && r.sent.Load() >= s.reattachAt {
			s.live, s.liveSince = true, t
		}
		return
	}
	sched := r.sched.Load()
	if sched >= s.liveSince && ph.window(sched) >= 0 {
		s.lat = append(s.lat, latSample{at: sched, ns: t - sched})
		if sl := b.spans.Load(); sl != nil {
			if acked := r.acked.Load(); acked > 0 {
				s.ackToDlv = append(s.ackToDlv, t-acked)
				sl.add(span{kind: spanDeliver, event: id, sub: uint32(s.sub.ID()), start: acked, end: t})
			}
		}
	}
}

// detach disconnects a cohort subscriber; its deliveries stop counting.
func (b *bench) detach(s *subState) error {
	s.mu.Lock()
	s.live, s.reattachAt = false, 0
	s.mu.Unlock()
	t := now()
	err := s.sub.Disconnect()
	if sl := b.spans.Load(); sl != nil {
		sl.add(span{kind: spanDisconnect, sub: uint32(s.sub.ID()), start: t, end: now()})
	}
	return err
}

// reattach reconnects a cohort subscriber from its checkpoint token.
func (b *bench) reattach(ctx context.Context, s *subState) error {
	s.mu.Lock()
	t := now()
	s.reattachAt = t
	s.catchups = append(s.catchups, catchupRec{phase: b.cur.Load().index, reattach: t})
	s.mu.Unlock()
	err := s.sub.Connect(ctx, b.tr.inproc, b.tr.shbs[s.shb].BoundAddr())
	end := now()
	s.mu.Lock()
	s.catchups[len(s.catchups)-1].connectNS = end - t
	s.mu.Unlock()
	if sl := b.spans.Load(); sl != nil {
		sl.add(span{kind: spanConnect, sub: uint32(s.sub.ID()), start: t, end: end})
	}
	return err
}

// send publishes event id, due at sched, with attributes from the seed.
// It returns the ack channel, or nil when the publish failed.
func (b *bench) send(p *repro.Publisher, id uint32, sched int64) (*evRec, <-chan *message.PublishAck) {
	r := b.ev.at(id)
	r.group, r.price = attrsOf(b.seed, uint64(id))
	r.sched.Store(sched)
	ev := newEvent(id, r.group, r.price)
	t := now()
	r.sent.Store(t)
	ch, err := p.PublishAsync(ev, 0)
	if sl := b.spans.Load(); sl != nil {
		sl.add(span{kind: spanPublishCall, event: id, start: t, end: now()})
	}
	if err != nil {
		r.failed.Store(true)
		return r, nil
	}
	return r, ch
}

// publish sends event id and records its ack asynchronously.
func (b *bench) publish(p *repro.Publisher, id uint32, sched int64) {
	r, ch := b.send(p, id, sched)
	if ch == nil {
		return
	}
	b.ackWG.Add(1)
	go func() {
		defer b.ackWG.Done()
		b.recordAck(r, id, ch)
	}()
}

func (b *bench) recordAck(r *evRec, id uint32, ch <-chan *message.PublishAck) {
	a, ok := <-ch
	if !ok || a.Timestamp == 0 {
		r.failed.Store(true)
		return
	}
	r.pubend.Store(uint32(a.Pubend))
	r.ts.Store(uint64(a.Timestamp))
	t := now()
	r.acked.Store(t)
	if sl := b.spans.Load(); sl != nil {
		sl.add(span{kind: spanAck, event: id, start: r.sent.Load(), end: t})
	}
}

// openLoop publishes rate events/s for d from start: event k is due at
// start+k/rate whether or not earlier ones were acked, and send is handed
// that due time, so a stall shows as lateness of every later event.
// Publisher j of n takes every n-th event and sleeps only while the next
// one is not yet due. It returns the number of events.
func openLoop(start int64, d time.Duration, rate float64, n int, send func(j int, k uint32, due int64)) uint32 {
	total := uint32(d.Seconds() * rate)
	interval := float64(time.Second) / rate
	var wg sync.WaitGroup
	for j := 0; j < n; j++ {
		wg.Add(1)
		go func(j int) {
			defer wg.Done()
			for k := uint32(j); k < total; k += uint32(n) {
				due := start + int64(float64(k)*interval)
				sleepUntil(due)
				send(j, k, due)
			}
		}(j)
	}
	wg.Wait()
	return total
}

// load drives the workload's publishers from start for d.
func (b *bench) load(start int64, d time.Duration) {
	// Claim the ids up front: subscribers accept only ids below next.
	n := uint32(d.Seconds() * b.w.rate)
	base := b.ev.next.Add(n) - n
	openLoop(start, d, b.w.rate, len(b.pubs), func(j int, k uint32, due int64) {
		b.publish(b.pubs[j], base+k, due)
	})
}

// warmLoad is how long the workload runs unmeasured before the first
// phase, so caches fill and the heap grows to its working size before
// anything is timed. Its events are still checked for exactly-once.
const warmLoad = 5 * time.Second

// phase is one measured stretch of load with its schedule and the raw
// figures taken while it ran.
type phase struct {
	index            int
	start, liveUntil int64
	firstID, endID   uint32
	cycles           []cycle
	// cpuStart and cpuEnd are the process CPU time at the start and the
	// end of the live window.
	cpuStart, cpuEnd  int64
	win               int64
	windows           int
	before, after     scrape
	rtBefore, rtAfter runtimeSample
	gauges            gaugeMax
	spans             *spanLog
	// Subscriber-side samples, collected once the phase has settled.
	lat      []latSample
	ackToDlv []int64
	recvWin  []int
	rssMB    float64 // peak resident set once the phase ended
	// Machine-wide CPU split over the phase: time stolen by other guests
	// and time waiting on I/O, as shares of all CPU time. They say how
	// noisy the machine was, not how the program did.
	stealPct, iowaitPct float64
}

// window is the sub-window of the live window holding t, or -1 outside
// it; the last sub-window absorbs the remainder.
func (ph *phase) window(t int64) int {
	if t < ph.start || t >= ph.liveUntil {
		return -1
	}
	return min(int((t-ph.start)/ph.win), ph.windows-1)
}

// windowSpan is sub-window k as [from, to).
func (ph *phase) windowSpan(k int) (from, to int64) {
	from = ph.start + int64(k)*ph.win
	if k == ph.windows-1 {
		return from, ph.liveUntil
	}
	return from, from + ph.win
}

// runPhase drives load for d, detaching and reattaching the cohort on the
// workload's schedule.
func (b *bench) runPhase(ctx context.Context, index int, d time.Duration, traced bool) (*phase, error) {
	liveUntil, cycles := b.w.schedule(b.seed+int64(index), d)
	ph := &phase{index: index, cycles: cycles, win: int64(subWindow)}
	ph.windows = max(1, int(int64(liveUntil)/ph.win))
	ph.recvWin = make([]int, ph.windows)
	var sampler *gaugeSampler
	if traced {
		b.spans.Store(newSpanLog())
		var err error
		if ph.before, err = scrapeNow(); err != nil {
			return nil, err
		}
		sampler = startGaugeSampler()
	}
	ph.rtBefore = readRuntime()
	for _, s := range b.subs {
		s.mu.Lock()
		s.lat, s.ackToDlv, s.recvWin = s.lat[:0], s.ackToDlv[:0], make([]int, ph.windows)
		s.mu.Unlock()
	}
	ph.firstID = b.ev.next.Load()
	ph.start = now()
	ph.liveUntil = ph.start + int64(liveUntil)
	b.cur.Store(ph)
	host0 := readHostCPU()
	ph.cpuStart = processCPU()
	cpuDone := make(chan struct{})
	go func() {
		defer close(cpuDone)
		sleepUntil(ph.liveUntil)
		ph.cpuEnd = processCPU()
	}()

	loadDone := make(chan struct{})
	go func() {
		defer close(loadDone)
		b.load(ph.start, d)
	}()
	var cohort []*subState
	for _, s := range b.subs {
		if s.cohort {
			cohort = append(cohort, s)
		}
	}
	var stormErr error
	for _, c := range cycles {
		sleepUntil(ph.start + int64(c.detach))
		if err := b.forEachSub(cohort, b.detach); err != nil && stormErr == nil {
			stormErr = fmt.Errorf("bench: detach: %w", err)
		}
		sleepUntil(ph.start + int64(c.reattach))
		if err := b.forEachSub(cohort, func(s *subState) error { return b.reattach(ctx, s) }); err != nil && stormErr == nil {
			stormErr = fmt.Errorf("bench: reattach: %w", err)
		}
	}
	<-cpuDone
	<-loadDone
	ph.endID = b.ev.next.Load()
	// Let deliveries of the last events land before collecting samples.
	time.Sleep(settle)
	for _, s := range b.subs {
		s.mu.Lock()
		ph.lat = append(ph.lat, s.lat...)
		ph.ackToDlv = append(ph.ackToDlv, s.ackToDlv...)
		for i, c := range s.recvWin {
			ph.recvWin[i] += c
		}
		s.mu.Unlock()
	}
	if traced {
		ph.spans = b.spans.Swap(nil)
		sampler.stop()
		ph.gauges = sampler.max
		var err error
		if ph.after, err = scrapeNow(); err != nil {
			return nil, err
		}
	}
	ph.rtAfter = readRuntime()
	ph.rssMB = peakRSSMB()
	if host := readHostCPU(); host.total > host0.total {
		ph.stealPct = 100 * (host.steal - host0.steal) / (host.total - host0.total)
		ph.iowaitPct = 100 * (host.iowait - host0.iowait) / (host.total - host0.total)
	}
	return ph, stormErr
}

// settle is how long a phase waits after its last publish before taking
// the subscriber-side samples.
const settle = 300 * time.Millisecond

func sleepUntil(t int64) {
	if wait := t - now(); wait > 0 {
		time.Sleep(time.Duration(wait))
	}
}

// drain waits for every outstanding ack and then for every subscriber to
// hold as many events as the checker expects of it.
func (b *bench) drain(ctx context.Context, timeout time.Duration) ([]published, error) {
	acks := make(chan struct{})
	go func() { b.ackWG.Wait(); close(acks) }()
	select {
	case <-acks:
	case <-time.After(timeout):
		return nil, errors.New("bench: publishes still unacked after drain timeout")
	}
	events := b.published()
	want := expectedIDs(events, b.filters)
	counts := make([]int, len(want))
	for i, w := range want {
		counts[i] = len(w)
	}
	return events, b.waitDelivered(ctx, counts, timeout)
}

func (b *bench) published() []published {
	n := b.ev.next.Load()
	out := make([]published, n)
	for id := uint32(0); id < n; id++ {
		r := b.ev.at(id)
		out[id] = published{
			group: r.group, price: r.price,
			acked:  r.acked.Load() > 0 && !r.failed.Load(),
			pubend: r.pubend.Load(), ts: r.ts.Load(),
			sched: r.sched.Load(), sent: r.sent.Load(), ackAt: r.acked.Load(),
		}
	}
	return out
}

// waitDelivered polls until subscriber i has received want[i] events.
func (b *bench) waitDelivered(ctx context.Context, want []int, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		short := 0
		for i, s := range b.subs {
			s.mu.Lock()
			if len(s.log) < want[i] {
				short++
			}
			s.mu.Unlock()
		}
		if short == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%d subscribers still short of their events after %v", short, timeout)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(10 * time.Millisecond):
		}
	}
}
