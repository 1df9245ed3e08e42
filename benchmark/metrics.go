package main

import (
	"math"
	"slices"
	"sort"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the figures a user of the system sees that hold steady
// over runs of the same code on a shared machine, so a bound on them
// means something; every run with tracing off prints all of them.
var endToEnd = []metricDef{
	{"deliver_p50_ms", "ms"},
	{"ingest_eps", "1/s"},
	{"delivered_eps", "1/s"},
	{"cpu_us_per_event", "us"},
	{"rss_peak_mb", "MiB"},
	{"setup_s", "s"},
}

// unbounded are end-to-end figures that do not hold steady enough to
// bound: over ten runs of the same code on a 2-core VM their quartile
// spread reached 0.18–0.68 of the median on at least one workload (see
// README.md). A run with tracing off prints them after the bounded ones;
// a traced run reports them, from its untraced half, as client.*
// per-layer metrics.
var unbounded = []metricDef{
	{"deliver_p90_ms", "ms"},
	{"deliver_p99_ms", "ms"},
	{"publish_ack_p50_ms", "ms"},
	{"publish_ack_p90_ms", "ms"},
	{"publish_ack_p99_ms", "ms"},
	{"catchup_p50_ms", "ms"},
	{"catchup_p90_ms", "ms"},
	{"catchup_p99_ms", "ms"},
	{"catchup_eps", "1/s"},
}

// perLayer are the traced run's figures, named module.metric.
var perLayer = []metricDef{
	{"client.publish_call_us", "us"},
	{"client.ack_to_deliver_p50_ms", "ms"},
	{"client.ack_to_deliver_p99_ms", "ms"},
	{"client.connect_ms", "ms"},
	{"client.gen_late_p99_ms", "ms"},
	{"overlay.bytes_per_event", "bytes"},
	{"overlay.frames_per_write", "count"},
	{"overlay.queue_depth_max", "count"},
	{"overlay.send_errors", "count"},
	{"message.encode_ns", "ns"},
	{"message.decode_ns", "ns"},
	{"message.ref_pool_misses_per_kevent", "count"},
	{"message.refs_outstanding", "count"},
	{"broker.shard_busy_us_per_event", "us"},
	{"broker.shard_queue_depth_max", "count"},
	{"broker.publish_p50_ms", "ms"},
	{"broker.publish_p99_ms", "ms"},
	{"broker.allocs_per_event", "count"},
	{"broker.filtered_ratio", "ratio"},
	{"broker.nacks_routed", "count"},
	{"logvol.fsyncs_per_event", "count"},
	{"logvol.commit_batch_mean", "count"},
	{"logvol.commit_wait_p50_ms", "ms"},
	{"logvol.commit_wait_p99_ms", "ms"},
	{"logvol.append_bytes_per_event", "bytes"},
	{"logvol.append_async_us", "us"},
	{"matchidx.match_ns_per_event", "ns"},
	{"matchidx.candidates_per_event", "count"},
	{"matchidx.hits_per_event", "count"},
	{"matchidx.useful_ratio", "ratio"},
	{"matchidx.match_append_ns", "ns"},
	{"core.deliveries_per_event", "count"},
	{"core.silences_per_event", "count"},
	{"core.cache_hit_ratio", "ratio"},
	{"core.nack_spans", "count"},
	{"core.switchovers", "count"},
	{"core.catchup_p50_ms", "ms"},
	{"core.catchup_p99_ms", "ms"},
	{"core.catchup_active_max", "count"},
	{"core.sched_budget_exhausted_ratio", "ratio"},
	{"pfs.writes_per_event", "count"},
	{"pfs.write_bytes_per_event", "bytes"},
	{"pfs.reads", "count"},
	{"pfs.walk_records_per_read", "count"},
	{"pfs.decode_cache_hit_ratio", "ratio"},
	{"pfs.write_us", "us"},
	{"pfs.read_us", "us"},
	{"metastore.ops_per_commit", "count"},
	{"metastore.commit_p50_ms", "ms"},
	{"metastore.commit_p99_ms", "ms"},
	{"metastore.commit_us", "us"},
	{"runtime.alloc_bytes_per_event", "bytes"},
	{"runtime.gc_cycles_per_kevent", "count"},
	{"trace.overhead_cpu_us_per_event", "us"},
	{"trace.overhead_deliver_p50_ms", "ms"},
	{"trace.spans", "count"},
	{"client.deliver_p90_ms", "ms"},
	{"client.deliver_p99_ms", "ms"},
	{"client.publish_ack_p50_ms", "ms"},
	{"client.publish_ack_p90_ms", "ms"},
	{"client.publish_ack_p99_ms", "ms"},
	{"client.catchup_p50_ms", "ms"},
	{"client.catchup_p90_ms", "ms"},
	{"client.catchup_p99_ms", "ms"},
	{"client.catchup_eps", "1/s"},
}

// sampleCounts records how many samples each timing rests on.
type sampleCounts struct {
	Deliver, PublishAck, Catchup, Cycles, Windows int
	HostStealPct, HostIOWaitPct                   float64
}

// latSample is one latency and the scheduled publish time it belongs to.
type latSample struct{ at, ns int64 }

// windowed splits samples into the phase's sub-windows by scheduled time
// and returns each non-empty sub-window's latencies in ms.
func windowed(samples []latSample, ph *phase) [][]float64 {
	out := make([][]float64, ph.windows)
	for _, s := range samples {
		if i := ph.window(s.at); i >= 0 {
			out[i] = append(out[i], float64(s.ns)/1e6)
		}
	}
	return slices.DeleteFunc(out, func(xs []float64) bool { return len(xs) == 0 })
}

// medianOf is the median over groups of each group's q-quantile.
func medianOf(groups [][]float64, q float64) float64 {
	per := make([]float64, 0, len(groups))
	for _, g := range groups {
		per = append(per, quantile(g, q))
	}
	return median(per)
}

// e2eMetrics derives the end-to-end figures of one phase: latencies over
// its live window, catchups over its reattach cycles. Latency quantiles
// and the delivery rate are taken per sub-window (catchup figures per
// cycle) and the median over them is reported, so a stall of a few
// seconds on a shared machine moves one group, not the figure.
func e2eMetrics(ph *phase, subs []*subState, events []published) (map[string]float64, sampleCounts) {
	n := sampleCounts{HostStealPct: ph.stealPct, HostIOWaitPct: ph.iowaitPct, Windows: ph.windows}
	m := map[string]float64{}
	dl := windowed(ph.lat, ph)
	n.Deliver = len(ph.lat)
	m["deliver_p50_ms"] = medianOf(dl, 0.5)
	m["deliver_p90_ms"] = medianOf(dl, 0.9)
	m["deliver_p99_ms"] = medianOf(dl, 0.99)

	var ack []latSample
	scheduled := 0
	lastAck := ph.start
	for _, e := range events[ph.firstID:ph.endID] {
		if ph.window(e.sched) >= 0 {
			scheduled++
			if e.acked {
				ack = append(ack, latSample{at: e.sched, ns: e.ackAt - e.sched})
				lastAck = max(lastAck, e.ackAt)
			}
		}
	}
	n.PublishAck = len(ack)
	al := windowed(ack, ph)
	m["publish_ack_p50_ms"] = medianOf(al, 0.5)
	m["publish_ack_p90_ms"] = medianOf(al, 0.9)
	m["publish_ack_p99_ms"] = medianOf(al, 0.99)
	// The live window's events over the time until the last was acked:
	// the offered rate, less however far the log fell behind.
	m["ingest_eps"] = ratio(float64(len(ack)), float64(lastAck-ph.start)/1e9)
	delivered := make([]float64, ph.windows)
	for k := range delivered {
		from, to := ph.windowSpan(k)
		delivered[k] = float64(ph.recvWin[k]) / (float64(to-from) / 1e9)
	}
	m["delivered_eps"] = median(delivered)
	// CPU is taken over the whole live window instead: a stall costs no
	// CPU time, and the GC's CPU comes in lumps, a few per sub-window,
	// which the whole window averages out.
	m["cpu_us_per_event"] = ratio(float64(ph.cpuEnd-ph.cpuStart)/1e3, float64(scheduled))

	// A subscriber's k-th reattach in this phase belongs to cycle k. Its
	// backlog is the events published before the reattach that arrive
	// after it (and before its next reattach); the catchup ends at the
	// last of them, or when Connect returned if there were none.
	type cyc struct {
		lat         []float64
		backlog     int
		first, last int64
	}
	cycles := make([]cyc, len(ph.cycles))
	for _, s := range subs {
		s.mu.Lock()
		k := 0
		for j, c := range s.catchups {
			if c.phase != ph.index || k >= len(cycles) {
				continue
			}
			until := int64(math.MaxInt64)
			if j+1 < len(s.catchups) {
				until = s.catchups[j+1].reattach
			}
			done, backlog := c.reattach+c.connectNS, 0
			from := sort.Search(len(s.log), func(i int) bool { return s.log[i].at >= c.reattach })
			for _, r := range s.log[from:] {
				if r.at >= until {
					break
				}
				if int(r.id) < len(events) && events[r.id].sent < c.reattach {
					backlog++
					done = max(done, r.at)
				}
			}
			cy := &cycles[k]
			cy.lat = append(cy.lat, float64(done-c.reattach)/1e6)
			cy.backlog += backlog
			if cy.first == 0 || c.reattach < cy.first {
				cy.first = c.reattach
			}
			cy.last = max(cy.last, done)
			k++
		}
		s.mu.Unlock()
	}
	var lats [][]float64
	var eps []float64
	for _, c := range cycles {
		n.Catchup += len(c.lat)
		if len(c.lat) > 0 {
			lats = append(lats, c.lat)
		}
		if c.last > c.first {
			eps = append(eps, float64(c.backlog)/(float64(c.last-c.first)/1e9))
		}
	}
	n.Cycles = len(lats)
	m["catchup_p50_ms"] = medianOf(lats, 0.5)
	m["catchup_p90_ms"] = medianOf(lats, 0.9)
	m["catchup_p99_ms"] = medianOf(lats, 0.99)
	m["catchup_eps"] = median(eps)
	return m, n
}
