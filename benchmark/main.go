// Command benchmark is the repository's benchmark: it builds a broker tree
// in one process through the repro facade, drives one workload against it,
// checks exactly-once delivery, and prints every metric by name with its
// unit. The last line of output is a JSON result. See README.md.
//
// Usage (from the repository root):
//
//	bash benchmark/run.sh --workload live-fanout --seed 1 --seconds 50 --trace 0
//	bash benchmark/run.sh --summarize
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// Output and scratch locations, relative to the directory the benchmark
// runs in (the repository root).
const (
	dataRoot = ".bench_data"
	outDir   = ".bench_out"
)

// A run builds the tree setupWarm+setupReps times: the first setupWarm
// builds pay the process's one-off costs (heap growth, first use of every
// code path) and are not timed, setup_s is the median of the rest, and
// the last one carries the workload.
const (
	setupWarm = 2
	setupReps = 9
)

// deadline bounds a whole run; past it the process gives up and exits
// non-zero rather than hang.
const deadline = 170 * time.Second

func main() { os.Exit(run(os.Args[1:])) }

func run(args []string) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: live-fanout or catchup-storm")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Int("seconds", 50, "measured seconds (run_seconds in BENCHMARK.json)")
	trace := fs.Int("trace", 0, "1: traced run printing per-layer metrics")
	summarize := fs.Bool("summarize", false, "print median and quartiles of the recorded runs and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *summarize {
		if err := summarizeRuns(filepath.Join(outDir, "runs.jsonl")); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		return 0
	}
	w, err := findWorkload(*name)
	if err != nil || *seconds < 1 {
		fmt.Fprintln(os.Stderr, "benchmark: need --workload (live-fanout|catchup-storm) and --seconds >= 1:", err)
		return 2
	}
	watchdog := time.AfterFunc(deadline, func() {
		fmt.Fprintln(os.Stderr, "benchmark: run exceeded", deadline)
		os.Exit(3)
	})
	defer watchdog.Stop()
	res, err := measure(w, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	return report(res)
}

// result is one run's outcome, as printed and as recorded.
type result struct {
	Context  runContext         `json:"context"`
	Setups   []float64          `json:"setup_s_samples"`
	Samples  []sampleCounts     `json:"samples"` // per phase
	Check    checkResult        `json:"check"`
	Metrics  map[string]float64 `json:"metrics"`
	Problems []string           `json:"problems,omitempty"`
	defs     []metricDef
}

type runContext struct {
	Workload   string         `json:"workload"`
	Seed       int64          `json:"seed"`
	Seconds    int            `json:"seconds"`
	Traced     bool           `json:"traced"`
	Params     map[string]any `json:"params"`
	CPUModel   string         `json:"cpu_model"`
	NumCPU     int            `json:"num_cpu"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	GoVersion  string         `json:"go_version"`
	DataFS     string         `json:"data_fs"`
	Time       string         `json:"time"`
}

func measure(w workload, seed int64, d time.Duration, traced bool) (*result, error) {
	ctx := context.Background()
	root := filepath.Join(dataRoot, "run-"+strconv.Itoa(os.Getpid()))
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(root)
	res := &result{defs: endToEnd}
	res.Context = runContext{
		Workload: w.name, Seed: seed, Seconds: int(d.Seconds()), Traced: traced,
		Params: map[string]any{
			"rate_eps": w.rate, "publishers": runtime.NumCPU(),
			"subscribers": w.subs, "storm": w.storm,
			"outage_ms": w.outage.Milliseconds(), "pubends": numPubends, "payload_bytes": payloadBytes,
			"setup_reps": setupReps, "setup_warm": setupWarm, "warm_load_s": min(warmLoad, d/2).Seconds(),
		},
		CPUModel: cpuModel(), NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), DataFS: fsType(root), Time: time.Now().UTC().Format(time.RFC3339),
	}

	var b *bench
	for k := 0; k < setupWarm+setupReps; k++ {
		b = newBench(w, seed, d)
		took, err := b.setup(ctx, filepath.Join(root, "setup-"+strconv.Itoa(k)))
		if err != nil {
			b.teardown()
			return nil, err
		}
		if k >= setupWarm {
			res.Setups = append(res.Setups, took.Seconds())
		}
		if k < setupWarm+setupReps-1 {
			b.teardown()
		}
	}
	defer b.teardown()

	// An unmeasured phase, with the workload's own detach and reattach
	// cycles, so caches, pools and the heap reach their working size on
	// the catchup path too before anything is timed.
	if _, err := b.runPhase(ctx, -1, min(warmLoad, d/2), false); err != nil {
		return nil, err
	}
	var phases []*phase
	if traced {
		// Half untraced, half traced: the difference is the overhead.
		for i, tr := range []bool{false, true} {
			ph, err := b.runPhase(ctx, i, d/2, tr)
			if err != nil {
				return nil, err
			}
			phases = append(phases, ph)
		}
	} else {
		ph, err := b.runPhase(ctx, 0, d, false)
		if err != nil {
			return nil, err
		}
		phases = append(phases, ph)
	}
	events, drainErr := b.drain(ctx, 30*time.Second)
	if drainErr != nil {
		res.Problems = append(res.Problems, drainErr.Error())
		events = b.published()
	}
	logs := make([][]received, len(b.subs))
	gaps := make([]int, len(b.subs))
	for i, s := range b.subs {
		s.mu.Lock()
		logs[i], gaps[i] = append([]received(nil), s.log...), s.gapNotes
		s.mu.Unlock()
	}
	res.Check = check(events, b.filters, logs, gaps)

	e2e := make([]map[string]float64, len(phases))
	for i, ph := range phases {
		var n sampleCounts
		e2e[i], n = e2eMetrics(ph, b.subs, events)
		res.Samples = append(res.Samples, n)
	}
	res.Metrics = e2e[0]
	// Peak memory while the workload ran, before the checker's copies.
	res.Metrics["rss_peak_mb"] = phases[len(phases)-1].rssMB
	res.Metrics["setup_s"] = median(append([]float64(nil), res.Setups...))
	if traced {
		ph := phases[1]
		m := layerMetrics(ph, events)
		m["trace.overhead_cpu_us_per_event"] = e2e[1]["cpu_us_per_event"] - e2e[0]["cpu_us_per_event"]
		m["trace.overhead_deliver_p50_ms"] = e2e[1]["deliver_p50_ms"] - e2e[0]["deliver_p50_ms"]
		m["trace.spans"] = float64(ph.spans.count())
		for _, d := range unbounded {
			m["client."+d.name] = e2e[0][d.name]
		}
		if err := runReplays(b, m, filepath.Join(root, "replay")); err != nil {
			return nil, fmt.Errorf("replay: %w", err)
		}
		if err := os.MkdirAll(outDir, 0o755); err == nil {
			path := filepath.Join(outDir, fmt.Sprintf("trace-%s-%d.tsv.gz", w.name, seed))
			if err := ph.spans.write(path); err != nil {
				res.Problems = append(res.Problems, "writing spans: "+err.Error())
			}
		}
		// Frame buffers still referenced once every tree is gone leaked:
		// caches legitimately pin frames until their broker closes.
		b.teardown()
		s, err := scrapeNow()
		if err != nil {
			return nil, err
		}
		m["message.refs_outstanding"] = s.sum("gryphon_msgref_outstanding")
		res.Metrics, res.defs = m, perLayer
	}
	return res, nil
}

// report prints every metric with its unit, records the run, and ends
// with the JSON result line.
func report(res *result) int {
	fmt.Printf("workload %s seed %d seconds %d traced %v on %s (%d CPU, GOMAXPROCS %d, %s, data on %s)\n",
		res.Context.Workload, res.Context.Seed, res.Context.Seconds, res.Context.Traced,
		res.Context.CPUModel, res.Context.NumCPU, res.Context.GOMAXPROCS, res.Context.GoVersion, res.Context.DataFS)
	fmt.Printf("check: %s\n", res.Check)
	for i, n := range res.Samples {
		fmt.Printf("phase %d samples: deliver=%d publish_ack=%d (over %d sub-windows) catchup=%d (over %d cycles); host steal %.1f%% iowait %.1f%%\n",
			i, n.Deliver, n.PublishAck, n.Windows, n.Catchup, n.Cycles, n.HostStealPct, n.HostIOWaitPct)
	}
	failed := res.Check.failed()
	attempted := res.Check.attempted()
	fmt.Printf("error_rate %.6g (failed %d of %d attempted)\n", ratio(float64(failed), float64(attempted)), failed, attempted)
	out := map[string]any{}
	for _, d := range res.defs {
		v, ok := res.Metrics[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			res.Problems = append(res.Problems, "metric "+d.name+" undefined")
			v = 0
		}
		res.Metrics[d.name] = v
		fmt.Printf("%-36s %14.6g %s\n", d.name, v, d.unit)
		out[d.name] = map[string]any{"value": v, "unit": d.unit}
	}
	if !res.Context.Traced {
		for _, d := range unbounded {
			fmt.Printf("%-36s %14.6g %s (unbounded)\n", d.name, res.Metrics[d.name], d.unit)
		}
	}
	for k, v := range res.Metrics {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			res.Metrics[k] = 0 // so the run can be recorded as JSON
		}
	}
	for _, p := range res.Problems {
		fmt.Println("problem:", p)
	}
	correct := failed == 0 && len(res.Problems) == 0 && attempted > 0
	if err := recordRun(res); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark: recording run:", err)
	}
	line, err := json.Marshal(map[string]any{
		"correct": correct, "attempted": max(attempted, 1), "failed": failed, "metrics": out,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// recordRun appends the run to the run log the summary reads.
func recordRun(res *result) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	f, err := os.OpenFile(filepath.Join(outDir, "runs.jsonl"), os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		f.Close()
		return err
	}
	_, err = f.Write(append(line, '\n'))
	return errors.Join(err, f.Close())
}

// summarizeRuns prints, per workload and mode, each metric's individual
// run values with their median and quartiles, and the quartile spread as
// a share of the median.
func summarizeRuns(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	type key struct {
		workload string
		traced   bool
	}
	runs := map[key][]result{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		var r result
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return err
		}
		k := key{r.Context.Workload, r.Context.Traced}
		runs[k] = append(runs[k], r)
	}
	if err := sc.Err(); err != nil {
		return err
	}
	keys := make([]key, 0, len(runs))
	for k := range runs {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		return keys[i].workload < keys[j].workload || keys[i].workload == keys[j].workload && !keys[i].traced && keys[j].traced
	})
	for _, k := range keys {
		rs := runs[k]
		c := rs[len(rs)-1].Context
		fmt.Printf("== %s traced=%v: %d runs (last on %s, %d CPU, %s, data on %s)\n",
			k.workload, k.traced, len(rs), c.CPUModel, c.NumCPU, c.GoVersion, c.DataFS)
		defs := slices.Concat(endToEnd, unbounded)
		if k.traced {
			defs = perLayer
		}
		for _, d := range defs {
			var vals []string
			var xs []float64
			for _, r := range rs {
				if v, ok := r.Metrics[d.name]; ok {
					xs = append(xs, v)
					vals = append(vals, strconv.FormatFloat(v, 'g', 5, 64))
				}
			}
			if len(xs) == 0 {
				continue
			}
			q1, med, q3 := quantile(xs, 0.25), quantile(xs, 0.5), quantile(xs, 0.75)
			fmt.Printf("%-36s median %-11.5g q1 %-11.5g q3 %-11.5g iqr/median %6.3f %s  runs: %s\n",
				d.name, med, q1, q3, ratio(q3-q1, math.Abs(med)), d.unit, strings.Join(vals, " "))
		}
	}
	return nil
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// fsType names the filesystem holding dir, from its statfs magic number.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xEF53: "ext4", 0x58465342: "xfs", 0x01021994: "tmpfs", 0x794c7630: "overlayfs",
		0x9123683E: "btrfs", 0x6969: "nfs", 0x65735546: "fuse", 0x2fc12fc1: "zfs",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", st.Type)
}
