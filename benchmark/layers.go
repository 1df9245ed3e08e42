package main

import (
	"bufio"
	"bytes"
	"os"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro"
)

// scrapeNow parses the process-wide instruments through the facade.
func scrapeNow() (scrape, error) {
	var buf bytes.Buffer
	if err := repro.WriteMetrics(&buf); err != nil {
		return nil, err
	}
	return parseProm(&buf)
}

// gaugeMax holds gauge maxima (and the allocs gauge's mean) sampled while
// a traced phase runs.
type gaugeMax struct {
	overlayQueue, shardQueue, catchupActive float64
	allocsMilliSum                          float64
	allocsSamples                           int
}

// gaugeSampler scrapes gauges every sampleEvery until stopped.
type gaugeSampler struct {
	max  gaugeMax
	quit chan struct{}
	done sync.WaitGroup
}

const sampleEvery = 25 * time.Millisecond

func startGaugeSampler() *gaugeSampler {
	g := &gaugeSampler{quit: make(chan struct{})}
	g.done.Add(1)
	go func() {
		defer g.done.Done()
		t := time.NewTicker(sampleEvery)
		defer t.Stop()
		for {
			select {
			case <-g.quit:
				return
			case <-t.C:
			}
			s, err := scrapeNow()
			if err != nil {
				continue
			}
			m := &g.max
			m.overlayQueue = max(m.overlayQueue, s.sum("gryphon_overlay_queue_depth"))
			m.shardQueue = max(m.shardQueue, s.max("gryphon_broker_shard_queue_depth"))
			m.catchupActive = max(m.catchupActive, s.sum("gryphon_core_catchup_active"))
			m.allocsMilliSum += s.sum("gryphon_broker_allocs_per_event_milli")
			m.allocsSamples++
		}
	}()
	return g
}

// stop ends sampling; g.max is final once it returns.
func (g *gaugeSampler) stop() {
	close(g.quit)
	g.done.Wait()
}

// processCPU is the process's user+system CPU time in ns.
func processCPU() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// peakRSSMB is the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
				kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
				if err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// hostCPU is the machine-wide CPU time split from /proc/stat, in ticks.
type hostCPU struct{ total, steal, iowait float64 }

func readHostCPU() hostCPU {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return hostCPU{}
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return hostCPU{}
	}
	var h hostCPU
	for i, v := range f[1:] {
		x, _ := strconv.ParseFloat(v, 64)
		h.total += x
		switch i {
		case 4:
			h.iowait = x
		case 7:
			h.steal = x
		}
	}
	return h
}

// runtimeSample is the Go runtime's cumulative allocation and GC counts.
type runtimeSample struct{ allocBytes, gcCycles uint64 }

func readRuntime() runtimeSample {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(s)
	var out runtimeSample
	if s[0].Value.Kind() == metrics.KindUint64 {
		out.allocBytes = s[0].Value.Uint64()
	}
	if s[1].Value.Kind() == metrics.KindUint64 {
		out.gcCycles = s[1].Value.Uint64()
	}
	return out
}

// ratio is a/b, or 0 when nothing was attempted.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerMetrics derives the per-layer figures of a traced phase from the
// instrument deltas, the gauge samples, the runtime counters and the
// spans. Instruments are process-wide, so each figure is the tree's sum.
func layerMetrics(ph *phase, events []published) map[string]float64 {
	spans := ph.spans
	b, a := ph.before, ph.after
	ev := float64(ph.endID - ph.firstID)
	perEvent := func(name string) float64 { return ratio(delta(b, a, name), ev) }
	m := map[string]float64{}

	m["client.publish_call_us"] = median(spans.durations(spanPublishCall)) / 1e3
	ad := nsToMS(ph.ackToDlv)
	m["client.ack_to_deliver_p50_ms"] = quantile(ad, 0.5)
	m["client.ack_to_deliver_p99_ms"] = quantile(ad, 0.99)
	m["client.connect_ms"] = median(spans.durations(spanConnect)) / 1e6
	var late []float64
	for id := ph.firstID; id < ph.endID; id++ {
		late = append(late, float64(events[id].sent-events[id].sched)/1e6)
	}
	m["client.gen_late_p99_ms"] = quantile(late, 0.99)

	m["overlay.bytes_per_event"] = perEvent("gryphon_overlay_tcp_bytes_total")
	m["overlay.frames_per_write"] = histogramDelta(b, a, "gryphon_overlay_write_batch_size").mean()
	m["overlay.queue_depth_max"] = ph.gauges.overlayQueue
	m["overlay.send_errors"] = delta(b, a, "gryphon_overlay_send_errors_total")

	m["message.ref_pool_misses_per_kevent"] = 1000 * perEvent("gryphon_msgref_pool_misses_total")

	m["broker.shard_busy_us_per_event"] = perEvent("gryphon_broker_shard_busy_nanos_total") / 1e3
	m["broker.shard_queue_depth_max"] = ph.gauges.shardQueue
	pub := histogramDelta(b, a, "gryphon_broker_publish_seconds")
	m["broker.publish_p50_ms"] = pub.quantile(0.5) * 1e3
	m["broker.publish_p99_ms"] = pub.quantile(0.99) * 1e3
	m["broker.allocs_per_event"] = ratio(ph.gauges.allocsMilliSum, float64(ph.gauges.allocsSamples)) / 1e3
	fwd, filt := delta(b, a, "gryphon_broker_events_forwarded_total"), delta(b, a, "gryphon_broker_events_filtered_total")
	m["broker.filtered_ratio"] = ratio(filt, fwd+filt)
	m["broker.nacks_routed"] = delta(b, a, "gryphon_broker_nacks_routed_total")

	m["logvol.fsyncs_per_event"] = perEvent("gryphon_logvol_fsyncs_total")
	m["logvol.commit_batch_mean"] = histogramDelta(b, a, "gryphon_logvol_commit_batch_size").mean()
	cw := histogramDelta(b, a, "gryphon_logvol_commit_wait_seconds")
	m["logvol.commit_wait_p50_ms"] = cw.quantile(0.5) * 1e3
	m["logvol.commit_wait_p99_ms"] = cw.quantile(0.99) * 1e3
	m["logvol.append_bytes_per_event"] = perEvent("gryphon_logvol_append_bytes_total")

	m["matchidx.match_ns_per_event"] = 1e9 * ratio(histogramDelta(b, a, "gryphon_match_seconds").sum, ev)
	cand, hits := delta(b, a, "gryphon_match_candidates_total"), delta(b, a, "gryphon_match_hits_total")
	m["matchidx.candidates_per_event"] = ratio(cand, ev)
	m["matchidx.hits_per_event"] = ratio(hits, ev)
	m["matchidx.useful_ratio"] = ratio(hits, cand)

	m["core.deliveries_per_event"] = perEvent("gryphon_core_events_delivered_total")
	m["core.silences_per_event"] = perEvent("gryphon_core_silences_delivered_total")
	ch, cm := delta(b, a, "gryphon_core_cache_hits_total"), delta(b, a, "gryphon_core_cache_misses_total")
	m["core.cache_hit_ratio"] = ratio(ch, ch+cm)
	m["core.nack_spans"] = delta(b, a, "gryphon_core_nack_spans_total")
	m["core.switchovers"] = delta(b, a, "gryphon_core_switchovers_total")
	cu := histogramDelta(b, a, "gryphon_core_catchup_seconds")
	m["core.catchup_p50_ms"] = cu.quantile(0.5) * 1e3
	m["core.catchup_p99_ms"] = cu.quantile(0.99) * 1e3
	m["core.catchup_active_max"] = ph.gauges.catchupActive
	m["core.sched_budget_exhausted_ratio"] = ratio(delta(b, a, "gryphon_shb_sched_budget_exhausted_total"),
		delta(b, a, "gryphon_shb_sched_rounds_total"))

	m["pfs.writes_per_event"] = perEvent("gryphon_pfs_writes_total")
	m["pfs.write_bytes_per_event"] = perEvent("gryphon_pfs_write_bytes_total")
	m["pfs.reads"] = delta(b, a, "gryphon_pfs_reads_total")
	m["pfs.walk_records_per_read"] = histogramDelta(b, a, "gryphon_pfs_read_walk_records").mean()
	dh, dm := delta(b, a, "gryphon_pfs_decode_cache_hits_total"), delta(b, a, "gryphon_pfs_decode_cache_misses_total")
	m["pfs.decode_cache_hit_ratio"] = ratio(dh, dh+dm)

	m["metastore.ops_per_commit"] = histogramDelta(b, a, "gryphon_metastore_commit_ops").mean()
	mc := histogramDelta(b, a, "gryphon_metastore_commit_seconds")
	m["metastore.commit_p50_ms"] = mc.quantile(0.5) * 1e3
	m["metastore.commit_p99_ms"] = mc.quantile(0.99) * 1e3

	m["runtime.alloc_bytes_per_event"] = ratio(float64(ph.rtAfter.allocBytes-ph.rtBefore.allocBytes), ev)
	m["runtime.gc_cycles_per_kevent"] = 1000 * ratio(float64(ph.rtAfter.gcCycles-ph.rtBefore.gcCycles), ev)
	return m
}
