// Command benchrunner regenerates the paper's evaluation (section 5) and
// the repository's robustness scenarios from the one scenario table,
// experiment.Scenarios: each run prints its headline metrics, and figure
// scenarios can also write their time series as CSV.
//
// Usage:
//
//	benchrunner -exp all                       # every scenario, smoke size
//	benchrunner -exp SHBScalability -full      # longer, closer-to-paper-scale run
//	benchrunner -exp SHBFailover -csv out/     # also write figure 7/8 series
//
// Scenario names are the root benchmark names without "Benchmark" and
// match case-insensitively; run with -h to list them.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/experiment"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "benchrunner:", err)
		os.Exit(1)
	}
}

func run() error {
	var names []string
	for _, sc := range experiment.Scenarios {
		names = append(names, sc.Name)
	}
	exp := flag.String("exp", "all", "scenario to run, or all: "+strings.Join(names, "|"))
	csvDir := flag.String("csv", "", "directory to write figure CSV series into")
	full := flag.Bool("full", false, "run the paper-scale size (the go test -bench size where a scenario declares none)")
	flag.Parse()

	todo := experiment.Scenarios
	if *exp != "all" {
		sc, ok := experiment.Lookup(*exp)
		if !ok {
			return fmt.Errorf("unknown experiment %q", *exp)
		}
		todo = []experiment.Scenario{sc}
	}
	dir, err := os.MkdirTemp("", "benchrunner-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir) //nolint:errcheck
	size := experiment.Smoke
	if *full {
		size = experiment.Paper
	}
	for _, sc := range todo {
		fmt.Printf("## %s — %s\n", sc.Name, sc.Title)
		out, err := sc.Run(filepath.Join(dir, sc.Name), size, 0)
		if err != nil {
			return err
		}
		for _, m := range out.Metrics {
			fmt.Printf("  %-36s %14.2f\n", m.Unit, m.Value)
		}
		fmt.Println()
		if err := writeCSV(*csvDir, sc.Name, out.Series); err != nil {
			return err
		}
	}
	return nil
}

// writeCSV writes each series as <dir>/<scenario>-<series>.csv (no-op
// without -csv).
func writeCSV(dir, scenario string, series []*experiment.Series) error {
	if dir == "" || len(series) == 0 {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, s := range series {
		f, err := os.Create(filepath.Join(dir, scenario+"-"+s.Name()+".csv"))
		if err != nil {
			return err
		}
		if err := s.WriteCSV(f); err != nil {
			f.Close() //nolint:errcheck,gosec // already failing
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	return nil
}
