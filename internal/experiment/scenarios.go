package experiment

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// Metric is one headline figure of a run, named by its unit (the unit
// string b.ReportMetric takes; benchrunner prints the same name).
type Metric struct {
	Unit  string
	Value float64
}

// Outcome is what one scenario run produced.
type Outcome struct {
	Result  any       // the Run* result: the BENCH_<Name>.json artifact
	Metrics []Metric  // headline figures
	Series  []*Series // figure time series (benchrunner -csv)
}

// Size picks which of a scenario's declared parameters a run uses.
type Size int

const (
	// Full is the size go test -bench runs.
	Full Size = iota
	// Smoke is the reduced size of go test -short, CI and benchrunner.
	Smoke
	// Paper is benchrunner -full: closer to the paper's scale where the
	// scenario declares one, else Full.
	Paper
)

// Scenario is one experiment, declared once in Scenarios with its sizes,
// its run, its gate and how its result reads. The root benchmarks
// (Benchmark<Name>; -short picks the smoke size), cmd/benchrunner
// (-exp <Name>; -full picks the paper scale) and CI all run it from here.
type Scenario struct {
	Name  string
	Title string
	run   func(dir string, size Size, iter int) (*Outcome, error)
}

// Run executes iteration iter of the scenario under dir at the given
// size. A scenario with a random fault schedule runs its declared seed
// plus iter, so repeated iterations cover different schedules. Every
// delivery scenario fails on a broken exactly-once verdict; the gate adds
// the scenario's own pass condition.
func (s Scenario) Run(dir string, size Size, iter int) (*Outcome, error) {
	out, err := s.run(dir, size, iter)
	if err != nil {
		return out, fmt.Errorf("%s: %w", s.Name, err)
	}
	return out, nil
}

// seeded is implemented by the params of scenarios whose fault schedule
// is drawn from a seed.
type seeded interface{ offsetSeed(i int64) }

// offsetSeed moves a seed whose zero value means 1 on by i.
func offsetSeed(seed *int64, i int64) {
	orDefault(seed, 1)
	*seed += i
}

// figures is implemented by results that carry a paper figure's series.
type figures interface{ Figures() []*Series }

// declare types one Scenarios entry: run takes the params, gate (nil =
// none) judges the result, report names its headline figures, and paper
// (at most one) is the paper-scale size.
func declare[P, R any](name, title string, full, smoke P, run func(string, P) (R, error),
	gate func(R) error, report func(R) []Metric, paper ...P) Scenario {
	return Scenario{Name: name, Title: title, run: func(dir string, size Size, iter int) (*Outcome, error) {
		p := full
		switch {
		case size == Smoke:
			p = smoke
		case size == Paper && len(paper) > 0:
			p = paper[0]
		}
		if s, ok := any(&p).(seeded); ok {
			s.offsetSeed(int64(iter))
		}
		r, err := run(dir, p)
		if err != nil {
			return nil, err
		}
		out := &Outcome{Result: r, Metrics: report(r)}
		if f, ok := any(r).(figures); ok {
			out.Series = f.Figures()
		}
		if gate != nil {
			err = gate(r)
		}
		return out, err
	}}
}

// Case is one named configuration of a sweep, or its result.
type Case[T any] struct {
	Name  string
	Value T
}

// sweep runs one configuration per case, each in its own directory.
func sweep[P, R any](run func(string, P) (R, error)) func(string, []Case[P]) ([]Case[R], error) {
	return func(dir string, cases []Case[P]) ([]Case[R], error) {
		var out []Case[R]
		for _, c := range cases {
			sub := filepath.Join(dir, c.Name)
			if err := os.MkdirAll(sub, 0o755); err != nil {
				return out, err
			}
			r, err := run(sub, c.Value)
			if err != nil {
				return out, fmt.Errorf("%s: %w", c.Name, err)
			}
			out = append(out, Case[R]{c.Name, r})
		}
		return out, nil
	}
}

// each reports every case's figures, suffixed with the case name.
func each[R any](report func(R) []Metric) func([]Case[R]) []Metric {
	return func(cases []Case[R]) []Metric {
		var out []Metric
		for _, c := range cases {
			for _, m := range report(c.Value) {
				out = append(out, Metric{m.Unit + "_" + c.Name, m.Value})
			}
		}
		return out
	}
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// Lookup returns the scenario called name (case-insensitive).
func Lookup(name string) (Scenario, bool) {
	for _, s := range Scenarios {
		if strings.EqualFold(s.Name, name) {
			return s, true
		}
	}
	return Scenario{}, false
}

// Scenarios is the one table of experiments, in the order benchrunner
// runs them. The smoke size is what CI runs.
var Scenarios = []Scenario{
	declare("EndToEndLatency",
		"E1 — end-to-end latency over a 5-hop broker network (paper: 50 ms, 44 ms of it PHB logging)",
		e1, e1, RunLatency, nil,
		func(r *LatencyResult) []Metric {
			return []Metric{{"latency_ms", ms(r.WithLogging.Mean)}, {"latency_p50_ms", ms(r.WithLogging.P50)},
				{"latency_p95_ms", ms(r.WithLogging.P95)}, {"nolog_latency_ms", ms(r.WithoutLogging.Mean)},
				{"nolog_latency_p50_ms", ms(r.WithoutLogging.P50)}, {"nolog_latency_p95_ms", ms(r.WithoutLogging.P95)},
				{"logging_share_%", r.LoggingShareMean * 100}}
		}, e1Paper),
	declare("MultiPubendThroughput",
		"sharded broker event loop vs the serialized baseline, 4 pubends flooded over loopback TCP",
		shardCases, shardCases, sweep(RunShardThroughput), nil,
		each(func(r *ShardThroughputResult) []Metric {
			return []Metric{{"events/s", r.DeliveryRate}, {"publishes/s", r.PublishRate}}
		})),
	declare("DurableThroughput",
		"durable publishes at 8 publishers: one fsync per event vs group commit (must stay below 1 fsync/event)",
		durableCases, durableCases, sweep(RunDurableThroughput),
		func(cs []Case[*DurableThroughputResult]) error {
			for _, c := range cs {
				if c.Name == "group" && c.Value.FsyncsPerEvent >= 1 {
					return fmt.Errorf("group commit issued %.3f fsyncs/event at %d publishers; expected well below 1",
						c.Value.FsyncsPerEvent, c.Value.Publishers)
				}
			}
			return nil
		},
		each(func(r *DurableThroughputResult) []Metric {
			return []Metric{{"events/s", r.EventsPerSec}, {"fsyncs/event", r.FsyncsPerEvent}}
		})),
	declare("SHBScalability",
		"E2 / figure 4 — aggregate delivery rate over 1→4 SHBs, with and without churn (paper: 20K→79.2K ev/s)",
		scalabilityCases(8, 1500*time.Millisecond), scalabilityCases(8, 1500*time.Millisecond), sweep(RunScalability), nil,
		func(cs []Case[*ScalabilityResult]) []Metric {
			out := each(func(r *ScalabilityResult) []Metric {
				return []Metric{{"events/s", r.AggregateRate}, {"events/s/sub", r.PerSubRate}}
			})(cs)
			rate := map[string]float64{}
			for _, c := range cs {
				rate[c.Name] = c.Value.AggregateRate
			}
			if rate["1shb_steady"] > 0 {
				out = append(out, Metric{"scaling_x_1to4shb", rate["4shb_steady"] / rate["1shb_steady"]})
			}
			return out
		}, scalabilityCases(24, 5*time.Second)),
	declare("CatchupDuration",
		"E3 / figure 5 — catchup durations under periodic disconnection (paper: 5–6 s for 5 s outages)",
		catchupRates, catchupRates, RunCatchupRates,
		func(r *CatchupRatesResult) error {
			if len(r.CatchupDurations) == 0 {
				return errors.New("no catchups completed")
			}
			return nil
		},
		func(r *CatchupRatesResult) []Metric {
			return []Metric{{"catchup_ms", ms(r.CatchupMean)}, {"catchup_p95_ms", ms(r.CatchupP95)},
				{"catchups", float64(len(r.CatchupDurations))}}
		}, catchupRatesPaper),
	declare("StreamRates",
		"E4 / figure 6 — latestDelivered(p) advances ≈1000 tick-ms/s; released(p) dips while subscribers are away",
		catchupRates, catchupRates, RunCatchupRates, nil,
		func(r *CatchupRatesResult) []Metric {
			return []Metric{{"ld_tickms/s", r.LDRateMean}, {"released_min_tickms/s", r.RelRateMin}}
		}, catchupRatesPaper),
	declare("PFSVersusEventLog",
		"E5 / §5.1.2 — PFS vs one event log per subscriber (paper: 25x less data, >5x faster)",
		pfsBench, pfsBench, RunPFSBench, nil,
		func(r *PFSBenchResult) []Metric {
			return []Metric{{"speedup_x", r.SpeedupX}, {"data_reduction_x", r.DataReductionX},
				{"pfs_MB", float64(r.PFSBytes) / 1e6}, {"eventlog_MB", float64(r.EventLogBytes) / 1e6},
				{"pfs_ms", ms(r.PFSDuration)}, {"eventlog_ms", ms(r.EventLogDur)}}
		}, PFSBenchParams{Events: 80000}), // the paper's full 100 s workload
	declare("PFSImprecise",
		"§4.2 ablation — the imprecise PFS trades write volume for refiltering during catchup",
		impreciseCases, impreciseCases, sweep(RunPFSBench), nil,
		each(func(r *PFSBenchResult) []Metric {
			return []Metric{{"pfs_MB", float64(r.PFSBytes) / 1e6}, {"speedup_x", r.SpeedupX}}
		})),
	declare("JMSAutoAck",
		"E6 / §5.2 — JMS auto-acknowledge throughput (paper: 4K ev/s @25 subs, 7.6K @200, 4 connections)",
		jmsCases(100, 1500*time.Millisecond), jmsCases(100, 1500*time.Millisecond), sweep(RunJMS), nil,
		each(func(r *JMSResult) []Metric {
			return []Metric{{"events/s", r.AggregateRate}, {"db_commits/s", r.DBCommitRate}, {"updates/tx", r.UpdatesPerTx}}
		}), jmsCases(200, 5*time.Second)), // the paper's 200 subscribers
	declare("SHBFailover",
		"E7 / figures 7+8 — SHB crash and recovery (paper: constream recovers at ≈5x the normal slope)",
		failover, failover, RunFailover, nil,
		func(r *FailoverResult) []Metric {
			shield := 0.0
			if total := r.CacheHits + r.CacheMisses; total > 0 {
				shield = 100 * float64(r.CacheHits) / float64(total)
			}
			return []Metric{{"recovery_slope_x", r.RecoveryLDRate / r.NormalLDRate}, {"catchup_ms", ms(r.CatchupMean)},
				{"normal_events/s", r.NormalRate}, {"catchup_events/s", r.CatchupRate},
				{"catchups", float64(len(r.CatchupDur))}, {"cache_shield_%", shield}}
		}, failoverPaper),
	declare("CatchupStreamsVsConstream",
		"result 3 — SHB delivery during all-subscriber catchup vs consolidated operation (paper: ~10K vs ~20K ev/s)",
		failover, failover, RunFailover, nil,
		func(r *FailoverResult) []Metric {
			ratio := 0.0
			if r.CatchupRate > 0 {
				ratio = r.NormalRate / r.CatchupRate
			}
			return []Metric{{"constream_events/s", r.NormalRate}, {"catchup_events/s", r.CatchupRate},
				{"constream_advantage_x", ratio}}
		}, failoverPaper),
	declare("NackConsolidation",
		"§3 — upstream recovery traffic saved when every subscriber recovers the same interval at once",
		nackFailover, nackFailover, RunFailover, nil,
		func(r *FailoverResult) []Metric {
			saved := 0.0
			if r.NackTicksWanted > 0 {
				saved = 100 * (1 - float64(r.NackTicksSent)/float64(r.NackTicksWanted))
			}
			return []Metric{{"ticks_saved_%", saved}, {"wanted_ticks", float64(r.NackTicksWanted)},
				{"sent_ticks", float64(r.NackTicksSent)}}
		}),
	declare("PFSReadBufferSweep",
		"§5.3 — catchup duration vs the PFS batch-read buffer (paper: 5000 Q ticks)",
		readBufferCases, readBufferCases, sweep(RunFailover), nil,
		each(func(r *FailoverResult) []Metric { return []Metric{{"catchup_ms", ms(r.CatchupMean)}} })),
	declare("EarlyRelease",
		"E8 / §3 — a lagging subscriber gets an explicit gap and the pubend reclaims storage",
		100*time.Millisecond, 100*time.Millisecond, RunEarlyRelease, nil,
		func(r *EarlyReleaseResult) []Metric {
			return []Metric{{"gaps", float64(r.GapsDelivered)}, {"events_after_gap", float64(r.EventsAfter)},
				{"retained_events", float64(r.PubendEvents)}}
		}),
	declare("IntermediateFiltering",
		"§1 — event traffic an intermediate broker downgrades to silence",
		time.Second, time.Second, RunFilteringAblation, nil,
		func(r *FilteringResult) []Metric {
			return []Metric{{"traffic_saved_%", r.SavedFraction * 100}, {"forwarded", float64(r.EventsForwarded)},
				{"silenced", float64(r.EventsFiltered)}}
		}),
	declare("Torture",
		"randomized SHB crashes and subscriber churn under continuous publishing, exactly-once intact",
		torture, torture, RunTorture, nil,
		func(r *TortureResult) []Metric {
			return []Metric{{"crashes", float64(r.Crashes)}, {"churns", float64(r.Churns)}, {"events", float64(r.Published)}}
		}, TortureParams{Subscribers: 6, Duration: 10 * time.Second, Seed: 1}),
	declare("MatchScaling",
		"linear scan vs the counting attribute index; the index must win at the largest size",
		MatchScalingParams{Sizes: []int{1000, 10000, 100000}}, MatchScalingParams{Sizes: []int{1000, 4000}},
		func(_ string, p MatchScalingParams) (*MatchScalingResult, error) { return RunMatchScaling(p) },
		func(r *MatchScalingResult) error {
			if last := r.Points[len(r.Points)-1]; last.SpeedupX < 1 {
				return fmt.Errorf("indexed engine slower than linear at %d subs: %.0fns vs %.0fns",
					last.Subs, last.IndexedNsPerEvent, last.LinearNsPerEvent)
			}
			return nil
		},
		func(r *MatchScalingResult) (out []Metric) {
			for _, pt := range r.Points {
				out = append(out, Metric{fmt.Sprintf("indexed_ns_%dsubs", pt.Subs), pt.IndexedNsPerEvent},
					Metric{fmt.Sprintf("linear_ns_%dsubs", pt.Subs), pt.LinearNsPerEvent},
					Metric{fmt.Sprintf("speedup_x_%dsubs", pt.Subs), pt.SpeedupX})
			}
			return out
		}),
	declare("PartitionHeal",
		"§3.3 — the SHB↔PHB link severed five times mid-stream, exactly-once intact",
		partition, partition, RunPartitionHeal, nil,
		func(r *PartitionHealResult) []Metric {
			return []Metric{{"severs", float64(r.Severs)}, {"reconnects", float64(r.Reconnects)},
				{"mean_heal_ms", ms(r.MeanHeal)}, {"max_heal_ms", ms(r.MaxHeal)}}
		}),
	declare("TopologyChaos",
		"random broker crashes and live re-parents in a deep/wide tree, every /healthz green after",
		TopologyChaosParams{Mids: 3, SHBs: 8, Kills: 5, Reparents: 5},
		TopologyChaosParams{Mids: 2, SHBs: 3, Kills: 2, Reparents: 2},
		RunTopologyChaos, nil,
		func(r *TopologyChaosResult) []Metric {
			return []Metric{{"brokers", float64(r.Brokers)}, {"kills", float64(r.Kills)},
				{"reparents", float64(r.Reparents)}, {"events", float64(r.Published)}}
		}),
	declare("SelfHealing",
		"interior-broker kills (one permanent) repaired by the brokers alone; time-to-repair p50/p99",
		SelfHealingParams{Mids: 5, SHBs: 6, Kills: 5}, SelfHealingParams{Mids: 3, SHBs: 4, Kills: 3},
		RunSelfHealing, nil,
		func(r *SelfHealingResult) []Metric {
			return []Metric{{"brokers", float64(r.Brokers)}, {"kills", float64(r.Kills)},
				{"failovers", float64(r.Failovers)}, {"repair-p50-ms", r.RepairP50Ms}, {"repair-p99-ms", r.RepairP99Ms}}
		}),
	declare("SubscriberChurn",
		"durable population under detach/resume storms: sharded engine vs the single-lock baseline",
		ChurnParams{Subscribers: 50000, Events: 20000, ChurnOps: 2000},
		ChurnParams{Subscribers: 5000, Events: 4000, ChurnOps: 400},
		RunChurnComparison,
		func(r *ChurnComparison) error {
			// Sharding can only pay with real parallelism.
			if runtime.NumCPU() >= 4 && r.ThroughputX < 1 {
				return fmt.Errorf("sharded engine slower than single-lock baseline on %d cores: %.0f vs %.0f events/s",
					runtime.NumCPU(), r.Sharded.EventsPerSec, r.SingleLock.EventsPerSec)
			}
			return nil
		},
		func(r *ChurnComparison) []Metric {
			return []Metric{{"live_p99_ms", ms(r.Sharded.LiveP99)}, {"drain_ms", ms(r.Sharded.DrainTime)},
				{"events_per_sec", r.Sharded.EventsPerSec}, {"catchups", float64(r.Sharded.Catchups)},
				{"throughput_x_vs_singlelock", r.ThroughputX}}
		}),
}

// Sizes shared by several entries, and the sweeps' cases.
var (
	e1                = LatencyParams{Hops: 5, Events: 40, LogLatency: 44 * time.Millisecond, LinkLatency: 200 * time.Microsecond}
	e1Paper           = LatencyParams{Hops: 5, Events: 200, LogLatency: 44 * time.Millisecond, LinkLatency: 200 * time.Microsecond}
	catchupRates      = CatchupRatesParams{Subscribers: 12, Duration: 3 * time.Second}
	catchupRatesPaper = CatchupRatesParams{Subscribers: 12, Duration: 10 * time.Second}
	pfsBench          = PFSBenchParams{Events: 8000} // 10 s of the paper's 800 ev/s workload
	failover          = FailoverParams{Subscribers: 24, Machines: 4, Down: 500 * time.Millisecond, PostRun: 2 * time.Second}
	// The paper's 40 subscribers over 5 machines, with a longer outage.
	failoverPaper = FailoverParams{Subscribers: 40, Machines: 5, Down: 2 * time.Second, PostRun: 6 * time.Second}
	nackFailover  = FailoverParams{Subscribers: 24, Machines: 4, Down: 400 * time.Millisecond, PostRun: 2 * time.Second}
	torture       = TortureParams{Subscribers: 5, Duration: 2 * time.Second, Seed: 1}
	partition     = PartitionHealParams{Severs: 5, Seed: 1}

	shardCases = []Case[ShardThroughputParams]{
		{"serialized_1shard", ShardThroughputParams{Pubends: 4, Shards: 1, TCP: true, Measure: 1500 * time.Millisecond}},
		{fmt.Sprintf("sharded_%dshards", max(runtime.GOMAXPROCS(0), 2)),
			ShardThroughputParams{Pubends: 4, Shards: max(runtime.GOMAXPROCS(0), 2), TCP: true, Measure: 1500 * time.Millisecond}},
	}
	// A short linger guarantees batching even on disks whose fsync is
	// faster than the publishers' enqueue rate (CI tmpfs); on a real disk
	// the fsync itself is the window.
	durableCases = []Case[DurableThroughputParams]{
		{"always", DurableThroughputParams{Publishers: 8, Events: 150, Mode: "always", GroupMaxDelay: 500 * time.Microsecond}},
		{"group", DurableThroughputParams{Publishers: 8, Events: 150, Mode: "group", GroupMaxDelay: 500 * time.Microsecond}},
	}
	impreciseCases = []Case[PFSBenchParams]{
		{"precise", PFSBenchParams{Events: 8000}},
		{"bucket_10", PFSBenchParams{Events: 8000, ImpreciseBucket: 10}},
		{"bucket_100", PFSBenchParams{Events: 8000, ImpreciseBucket: 100}},
	}
	readBufferCases = []Case[FailoverParams]{
		{"buf_50", readBuffer(50)},
		{"buf_500", readBuffer(500)},
		{"buf_5000", readBuffer(5000)},
	}
)

// scalabilityCases sweeps 1→4 SHBs, steady and under churn.
func scalabilityCases(subsPerSHB int, measure time.Duration) []Case[ScalabilityParams] {
	c := func(name string, shbs int, churn bool) Case[ScalabilityParams] {
		return Case[ScalabilityParams]{name, ScalabilityParams{SHBs: shbs, SubsPerSHB: subsPerSHB,
			Disconnect: churn, Intermediate: shbs > 1, Measure: measure}}
	}
	return []Case[ScalabilityParams]{
		c("1broker_steady", 0, false), c("1shb_steady", 1, false), c("2shb_steady", 2, false), c("4shb_steady", 4, false),
		c("1shb_churn", 1, true), c("2shb_churn", 2, true), c("4shb_churn", 4, true),
	}
}

// jmsCases runs 25 and big subscribers over 4 connections, and 25 over one.
func jmsCases(big int, measure time.Duration) []Case[JMSParams] {
	return []Case[JMSParams]{
		{"25subs_4conn", JMSParams{Subscribers: 25, Connections: 4, Measure: measure}},
		{fmt.Sprintf("%dsubs_4conn", big), JMSParams{Subscribers: big, Connections: 4, Measure: measure}},
		{"25subs_1conn", JMSParams{Subscribers: 25, Connections: 1, Measure: measure}},
	}
}

func readBuffer(q int) FailoverParams {
	return FailoverParams{Subscribers: 12, Machines: 3, Down: 400 * time.Millisecond, PostRun: 1500 * time.Millisecond, ReadBufferQ: q}
}
