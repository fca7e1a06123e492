package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"text/tabwriter"
)

// minRuns is the fewest runs per side -compare accepts for a workload.
const minRuns = 5

// benchSpec is the part of BENCHMARK.json -compare reads.
type benchSpec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

func readSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// The labels -compare gives a workload × metric.
const (
	better     = "better"
	worse      = "worse"
	unchanged  = "unchanged"
	unresolved = "unresolved"
	// info marks a per-layer metric with no bound whose runs vary: shown,
	// not judged.
	info = "info"
)

// summary is one side's runs of one metric.
type summary struct {
	values      []float64 // sorted
	med, q1, q3 float64
}

func summarize(values []float64) summary {
	s := summary{values: append([]float64(nil), values...)}
	sort.Float64s(s.values)
	s.med = median(s.values)
	s.q1, s.q3 = quartiles(s.values)
	return s
}

// spread is the interquartile range as a share of the median.
func (s summary) spread() float64 {
	if s.med == 0 {
		if s.q3 == s.q1 {
			return 0
		}
		return 1
	}
	return (s.q3 - s.q1) / abs(s.med)
}

// quartiles returns the first and third quartiles of sorted values as
// Python's statistics.quantiles(values, n=4) computes them (the default
// exclusive method).
func quartiles(sorted []float64) (q1, q3 float64) {
	n := len(sorted)
	if n == 1 {
		return sorted[0], sorted[0]
	}
	at := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (sorted[j-1]*(4-delta) + sorted[j]*delta) / 4
	}
	return at(1), at(3)
}

// judge labels B against A. A spread wider than the bound on either side makes
// the result unresolved, unless every run of one side beats every run of
// the other by more than the bound.
func judge(a, b summary, bound float64, higherBetter bool) string {
	rel := change(a, b)
	if higherBetter {
		rel = -rel
	}
	aBest, aWorst := a.values[0], a.values[len(a.values)-1]
	bBest, bWorst := b.values[0], b.values[len(b.values)-1]
	if higherBetter {
		aBest, aWorst, bBest, bWorst = aWorst, aBest, bWorst, bBest
	}
	beats := func(x, y float64) bool { // x strictly better than y
		if higherBetter {
			return x > y
		}
		return x < y
	}
	switch {
	case a.spread() > bound || b.spread() > bound:
		switch {
		case beats(bWorst, aBest) && rel < -bound:
			return better
		case beats(aWorst, bBest) && rel > bound:
			return worse
		}
		return unresolved
	case rel > bound:
		return worse
	case rel < -bound:
		return better
	}
	return unchanged
}

// change is B's median minus A's as a share of A's.
func change(a, b summary) float64 {
	if a.med == b.med {
		return 0
	}
	return ratio(b.med-a.med, abs(a.med))
}

// compareFiles prints, for each workload × metric in both files, each
// side's median and quartiles and a label. End-to-end metrics use their
// bound from the spec. Per-layer metrics have none: one that reads the
// same on every run of both sides is exact and judged with bound 0, any
// other is shown as info. Exits 1 if any metric is worse.
func compareFiles(args []string, specPath string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "bench: -compare takes two result files: A.jsonl B.jsonl")
		return 2
	}
	spec, err := readSpec(specPath)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 2
	}
	sides := [2]map[string]map[string][]float64{}
	for i, path := range args {
		recs, err := readRecords(path)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 2
		}
		sides[i] = map[string]map[string][]float64{}
		for _, rec := range recs {
			byMetric := sides[i][rec.Workload]
			if byMetric == nil {
				byMetric = map[string][]float64{}
				sides[i][rec.Workload] = byMetric
			}
			for name, m := range rec.Metrics {
				byMetric[name] = append(byMetric[name], m.Value)
			}
		}
	}
	metrics := append(append([]specMetric(nil), spec.EndToEnd...), spec.PerLayer...)
	tw := tabwriter.NewWriter(stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tA median [q1, q3]\tB median [q1, q3]\tchange\tlabel")
	worseCount, compared := 0, 0
	for _, wl := range sortedKeys(sides[0]) {
		a, b := sides[0][wl], sides[1][wl]
		if b == nil {
			continue
		}
		for _, m := range metrics {
			av, bv := a[m.Name], b[m.Name]
			if len(av) == 0 || len(bv) == 0 {
				continue
			}
			if len(av) < minRuns || len(bv) < minRuns {
				fmt.Fprintf(stderr, "bench: %s %s: %d and %d runs, need at least %d each\n", wl, m.Name, len(av), len(bv), minRuns)
				return 2
			}
			sa, sb := summarize(av), summarize(bv)
			label := info
			switch {
			case m.Bound != nil:
				label = judge(sa, sb, *m.Bound, m.Better == "higher")
			case exact(sa) && exact(sb):
				label = judge(sa, sb, 0, m.Better == "higher")
			}
			if label == worse {
				worseCount++
			}
			compared++
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.4g [%.4g, %.4g]\t%.4g [%.4g, %.4g]\t%+.1f%%\t%s\n",
				wl, m.Name, m.Unit, sa.med, sa.q1, sa.q3, sb.med, sb.q1, sb.q3, 100*change(sa, sb), label)
		}
	}
	tw.Flush()
	if compared == 0 {
		fmt.Fprintln(stderr, "bench: the two files share no workload and metric")
		return 2
	}
	if worseCount > 0 {
		fmt.Fprintf(stdout, "%d metric(s) worse\n", worseCount)
		return 1
	}
	return 0
}

// exact reports whether every run read the same value.
func exact(s summary) bool { return s.values[0] == s.values[len(s.values)-1] }

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
