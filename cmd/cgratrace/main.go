// Command cgratrace analyzes the event traces the toolchain records:
// the Chrome-trace files written by the CLIs' -events flag, or the same
// events one JSON object per line (the form of its test fixtures). It
// reconstructs the span forest per run (validating begin/end pairing,
// durations and per-track timestamp order on the way) and reports
//
//   - per-phase attribution: total vs. self wall time per span name,
//   - the critical path: the longest root-to-leaf span chain (through
//     the portfolio's per-seed tracks in a portfolio trace),
//   - per-cell grouping: one row per exp.cell span (kernel × flow ×
//     config) for experiment-runner traces,
//
// and, with -diff old new, attributes the wall-clock delta between two
// traces to named phases — the regression table scripts/ci.sh pins with
// a golden fixture.
//
// Usage:
//
//	go run ./cmd/cgratrace events.trace [more ...]
//	go run ./cmd/cgratrace -diff old.jsonl new.jsonl
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/obs"
)

func main() {
	diff := flag.Bool("diff", false, "compare exactly two traces: attribute the wall-clock delta to phases")
	flag.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: cgratrace <events-file> ...")
		fmt.Fprintln(os.Stderr, "       cgratrace -diff <old-events> <new-events>")
		flag.PrintDefaults()
	}
	flag.Parse()
	var err error
	switch {
	case *diff && flag.NArg() == 2:
		err = runDiff(os.Stdout, flag.Arg(0), flag.Arg(1))
	case !*diff && flag.NArg() > 0:
		err = run(os.Stdout, flag.Args())
	default:
		flag.Usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "cgratrace:", err)
		os.Exit(1)
	}
}

// loadForest reads one events artifact (JSONL or Chrome-trace form) and
// reconstructs its validated span forest.
func loadForest(path string) ([]*obs.SpanNode, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	events, err := obs.ReadEvents(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	roots, err := obs.BuildSpanForest(events)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return roots, nil
}

// run prints the analysis report for each trace.
func run(w io.Writer, paths []string) error {
	for i, path := range paths {
		roots, err := loadForest(path)
		if err != nil {
			return err
		}
		if i > 0 {
			if _, err := fmt.Fprintln(w); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "== %s: %d root spans ==\n", filepath.Base(path), len(roots)); err != nil {
			return err
		}
		sections := []string{attributionTable(roots), criticalPathTable(roots)}
		if cells := cellTable(roots); cells != "" {
			sections = append(sections, cells)
		}
		for _, s := range sections {
			if _, err := fmt.Fprintln(w, s); err != nil {
				return err
			}
		}
	}
	return nil
}

// runDiff prints the phase-attribution regression table between two
// traces.
func runDiff(w io.Writer, oldPath, newPath string) error {
	oldRoots, err := loadForest(oldPath)
	if err != nil {
		return err
	}
	newRoots, err := loadForest(newPath)
	if err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "== diff %s -> %s ==\n", filepath.Base(oldPath), filepath.Base(newPath)); err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, diffTable(oldRoots, newRoots))
	return err
}
