package repro

// One benchmark per table/figure of the paper's evaluation (section 5),
// plus the robustness and performance scenarios added since. Each is a
// thin call into the experiment.Scenarios table, which declares every
// scenario once: its full and smoke sizes, its run, its gate and its
// headline metrics. -short runs the smoke size (what CI runs); the same
// table backs cmd/benchrunner. See EXPERIMENTS.md for the paper-vs-measured
// comparison.
//
// Experiment iterations take seconds, so the default -benchtime keeps
// b.N == 1; each iteration is one full experiment run.

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/experiment"
)

// runScenario runs the named scenario once per iteration (its smoke size
// under -short; iteration i of a seeded scenario runs its seed plus i),
// fails on its verdict or gate, and reports its headline metrics.
func runScenario(b *testing.B, name string) {
	b.Helper()
	sc, ok := experiment.Lookup(name)
	if !ok {
		b.Fatalf("no scenario %q", name)
	}
	size := experiment.Full
	if testing.Short() {
		size = experiment.Smoke
	}
	for i := 0; i < b.N; i++ {
		out, err := sc.Run(b.TempDir(), size, i)
		if err != nil {
			b.Fatal(err)
		}
		for _, m := range out.Metrics {
			b.ReportMetric(m.Value, m.Unit)
		}
		writeBenchJSON(b, name, out.Result)
	}
}

// writeBenchJSON persists a benchmark's result as BENCH_<name>.json under
// $BENCH_JSON_DIR (no-op when unset). CI runs the smoke benchmarks with
// the variable set and uploads the files as build artifacts so runs can
// be compared across commits.
func writeBenchJSON(b *testing.B, name string, v any) {
	b.Helper()
	dir := os.Getenv("BENCH_JSON_DIR")
	if dir == "" {
		return
	}
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		b.Fatalf("bench json: %v", err)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		b.Fatalf("bench json: %v", err)
	}
	if err := os.WriteFile(filepath.Join(dir, "BENCH_"+name+".json"), append(data, '\n'), 0o644); err != nil {
		b.Fatalf("bench json: %v", err)
	}
}

// BenchmarkEndToEndLatency is E1 (section 5, result 1): end-to-end latency
// over a 5-hop broker network with the PHB's 44ms forced-log latency. The
// paper reports 50ms end-to-end of which 44ms is logging.
func BenchmarkEndToEndLatency(b *testing.B) { runScenario(b, "EndToEndLatency") }

// BenchmarkMultiPubendThroughput compares the sharded broker event loop
// against the serialized single-loop baseline: 4 pubends flooded through
// windowed async publishers over real loopback TCP (so the framed
// write-coalescing path is on the critical path), one durable subscriber
// per pubend. On a multi-core box the sharded configuration should deliver
// ≥1.5× the baseline's events/s; on a single core the two are expected to
// tie (the run still validates exactly-once under shard concurrency).
func BenchmarkMultiPubendThroughput(b *testing.B) { runScenario(b, "MultiPubendThroughput") }

// BenchmarkDurableThroughput measures fully durable publish throughput at
// ≥8 concurrent publishers under the two durability regimes: "always" (one
// fsync per acked event — the paper's forced-log PHB) and "group" (the
// group-commit pipeline: batched appends, one fsync per batch). The
// headline numbers are events/s and fsyncs/event; group commit must come
// in well below 1 fsync/event. Each run also closes and recovers the
// volume, failing if any acked publish was lost.
func BenchmarkDurableThroughput(b *testing.B) { runScenario(b, "DurableThroughput") }

// BenchmarkSHBScalability is E2 (figure 4): aggregate delivery rate as
// SHBs are added, with and without subscriber churn. The paper scales
// 20K→79.2K ev/s (no churn) and 17.6K→69.6K (churn) over 1→4 SHBs.
func BenchmarkSHBScalability(b *testing.B) { runScenario(b, "SHBScalability") }

// BenchmarkCatchupDuration is E3 (figure 5): how long reconnecting
// subscribers take to catch up under the paper's churn workload (5–6s for
// a 5s outage in the paper; scaled here).
func BenchmarkCatchupDuration(b *testing.B) { runScenario(b, "CatchupDuration") }

// BenchmarkStreamRates is E4 (figure 6): advance rates of
// latestDelivered(p) (steady ≈1000 tick-ms/s regardless of churn) and
// released(p) (held back by disconnected subscribers).
func BenchmarkStreamRates(b *testing.B) { runScenario(b, "StreamRates") }

// BenchmarkPFSVersusEventLog is E5 (section 5.1.2): the PFS versus logging
// the event once per matching subscriber. Paper: 25× less data, >5×
// faster.
func BenchmarkPFSVersusEventLog(b *testing.B) { runScenario(b, "PFSVersusEventLog") }

// BenchmarkPFSImprecise is the design ablation of section 4.2: the
// imprecise PFS trades write volume for refiltering during catchup.
func BenchmarkPFSImprecise(b *testing.B) { runScenario(b, "PFSImprecise") }

// BenchmarkJMSAutoAck is E6 (section 5.2): aggregate JMS auto-acknowledge
// throughput, bounded by database commit rate and improved by batching CT
// updates across subscribers (paper: 4K ev/s at 25 subs, 7.6K at 200).
func BenchmarkJMSAutoAck(b *testing.B) { runScenario(b, "JMSAutoAck") }

// BenchmarkSHBFailover is E7 (figures 7 and 8): SHB crash and recovery.
// Paper shapes: the constream recovers at ≈5× the normal slope; released
// stays flat until subscribers reconnect; PHB load barely moves thanks to
// nack consolidation.
func BenchmarkSHBFailover(b *testing.B) { runScenario(b, "SHBFailover") }

// BenchmarkCatchupStreamsVsConstream quantifies the paper's result 3: SHB
// delivery throughput during all-subscriber catchup (separate streams)
// versus normal consolidated operation (paper: ~10K vs ~20K ev/s).
func BenchmarkCatchupStreamsVsConstream(b *testing.B) { runScenario(b, "CatchupStreamsVsConstream") }

// BenchmarkNackConsolidation measures how much upstream recovery traffic
// the curiosity-stream consolidation eliminates when every subscriber
// recovers the same interval at once (section 3).
func BenchmarkNackConsolidation(b *testing.B) { runScenario(b, "NackConsolidation") }

// BenchmarkPFSReadBufferSweep is the paper's future-work knob (and the
// read-buffer discussion of section 5.3): catchup duration versus the PFS
// batch-read buffer size (the paper uses 5000 Q ticks).
func BenchmarkPFSReadBufferSweep(b *testing.B) { runScenario(b, "PFSReadBufferSweep") }

// BenchmarkEarlyRelease is E8 (section 3's PHB-controlled policy): a
// lagging subscriber receives an explicit gap and live delivery resumes;
// pubend storage is reclaimed despite the outstanding subscription.
func BenchmarkEarlyRelease(b *testing.B) { runScenario(b, "EarlyRelease") }

// BenchmarkIntermediateFiltering quantifies section 1's network-utilization
// claim: the fraction of event traffic an intermediate broker downgrades
// to silence because nothing below a link subscribes to it.
func BenchmarkIntermediateFiltering(b *testing.B) { runScenario(b, "IntermediateFiltering") }

// BenchmarkTorture runs the randomized crash/churn fault-injection workload
// and reports the chaos survived with the exactly-once contract intact.
func BenchmarkTorture(b *testing.B) { runScenario(b, "Torture") }

// BenchmarkMatchScaling sweeps the subscription matcher over growing
// populations (1e3→1e5; 1e3 and 4e3 under -short), comparing the brute-force
// linear engine against the counting attribute index on an identical
// population and event stream. The run fails outright if the engines ever
// disagree on a match set, or if the index is not faster than the linear
// scan at the largest size — a regression gate, since the whole point of
// the index is sublinear growth.
func BenchmarkMatchScaling(b *testing.B) { runScenario(b, "MatchScaling") }

// BenchmarkPartitionHeal severs the SHB↔PHB overlay link five times behind
// a seeded fault injector while a publisher streams, and reports the
// supervised link's healing characteristics with the exactly-once contract
// intact (section 3.3's recovery protocol driven by real link failures).
func BenchmarkPartitionHeal(b *testing.B) { runScenario(b, "PartitionHeal") }

// BenchmarkTopologyChaos is the dynamic-membership acceptance run: a
// 12-broker tree (PHB + 3 relays + 8 SHBs) under live durable traffic,
// with 5 random broker crashes (each restarted from its data directory)
// and 5 live re-parents via Broker.SetUpstream. The run fails unless every
// broker's /healthz is green after the final heal and every subscriber
// received every event exactly once in order. -short runs a 6-broker tree
// with 2 crashes and 2 re-parents (the CI chaos-smoke step).
func BenchmarkTopologyChaos(b *testing.B) { runScenario(b, "TopologyChaos") }

// BenchmarkSelfHealing is the self-healing acceptance run: a 12-broker
// tree (PHB + 5 relays + 6 SHBs) where every non-root broker carries an
// ordered candidate-parent list, under live durable traffic, with 5
// interior-broker kills of which one is permanent — and ZERO driver-issued
// re-parents. Orphaned subtrees must repair themselves (probe candidates,
// adopt loop-free, make-before-break). The run fails unless every
// surviving broker heals and every subscriber received every event exactly
// once in order; the headline metrics are the time-to-repair p50/p99
// measured by the brokers' own repair monitors. -short runs an 8-broker
// tree with 3 kills (the CI selfheal-smoke step).
func BenchmarkSelfHealing(b *testing.B) { runScenario(b, "SelfHealing") }

// BenchmarkSubscriberChurn is the subscriber-churn scenario at paper scale:
// 50k durable subscribers with Zipf-distributed ack lag under
// connect/disconnect storms, catchup streams draining from the PFS while
// live traffic keeps flowing. It runs the sharded engine and the
// single-lock baseline over the same seeded workload, reports the
// live-path batch-ingest p99 alongside the post-publish drain time, and —
// on machines with at least 4 cores — gates on the sharded engine
// sustaining at least the single-lock live throughput. Exactly-once
// violations fail the run at either configuration. -short runs 5k
// subscribers, 4k events and 400 churn cycles (the CI churn-smoke step).
func BenchmarkSubscriberChurn(b *testing.B) { runScenario(b, "SubscriberChurn") }
