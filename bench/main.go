// Command bench is the toolchain's end-to-end and per-layer benchmark. It
// drives the layers' public functions itself, in the order exp.Runner and
// oracle.Pipeline call them (core.Map, asm.Assemble, verify.Run,
// static.Analyze/Strip, sim.New/Run/Engine.RunBatch, cdfg.Interp,
// power.ActivityEnergy, mapcache.GetOrStore), times each call from
// outside, and checks every output against a reference that is not the
// compiler: the memory cdfg.Interp computes, the kernel's golden check,
// and the cold image's sha256.
//
// Usage, from the repository root (bench/run.sh builds and runs it):
//
//	bash bench/run.sh --workload paper-cold --seed 1 --seconds 10 --trace 0
//	bash bench/run.sh --workload all --out runs.jsonl
//	bash bench/run.sh --compare base.jsonl change.jsonl
//
// A run sets the workload up three times (setup_s is the median), then
// repeats whole passes of its fixed work until --seconds have elapsed, in
// one goroutine: a closed loop with one client. Every pass must produce
// the same exact outputs. The last line of standard output is one JSON
// object: correct, attempted, failed and the metrics, end-to-end ones
// with --trace 0 and per-layer ones with --trace 1. A traced run also
// records one span per layer call and writes them under --tracedir for
// cgrametrics -events and cgratrace. Any wrong output makes the run
// report correct=false and exit 1.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/debug"
	"sort"
	"strings"
)

func main() { os.Exit(cli(os.Args[1:], os.Stdout, os.Stderr)) }

func cli(args []string, stdout, stderr io.Writer) int {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	only := fs.String("workload", "", "workload to run: "+strings.Join(names, ", ")+", or all")
	seed := fs.Int64("seed", 1, "input seed (1 is the development seed, 2 the held-out one)")
	seconds := fs.Float64("seconds", 10, "measure whole passes until this many seconds have elapsed")
	trace := fs.Int("trace", 0, "1: traced run reporting the per-layer metrics, with spans written under -tracedir")
	traceDir := fs.String("tracedir", filepath.Join(".bench_build", "trace"), "directory for a traced run's span and counter files")
	workDir := fs.String("workdir", filepath.Join(".bench_build", "work"), "scratch directory for the runs' cache directories")
	out := fs.String("out", "", "append each run's result as one JSON line to this file (the input of -compare)")
	compare := fs.Bool("compare", false, "compare two result files: -compare A.jsonl B.jsonl")
	spec := fs.String("spec", "BENCHMARK.json", "benchmark definition whose bounds -compare applies")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		return compareFiles(fs.Args(), *spec, stdout, stderr)
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "bench: -trace must be 0 or 1")
		return 2
	}
	todo := workloads
	if *only != "all" {
		w, err := workloadByName(*only)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %v (want one of %s, or all)\n", err, strings.Join(names, ", "))
			return 2
		}
		todo = []workload{w}
	}
	opts := defaultOptions()
	opts.seed, opts.seconds, opts.dir = *seed, *seconds, *workDir
	code := 0
	for i, w := range todo {
		if i > 0 {
			// Start each workload from a collected heap, as its own
			// process would, not from the garbage of the one before.
			debug.FreeOSMemory()
		}
		res, err := measure(w, opts, *trace == 1, *traceDir, stdout, stderr)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 2
		}
		line, err := json.Marshal(res)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 2
		}
		if *out != "" {
			if err := appendRecord(*out, record{Workload: w.name, Seed: *seed, Trace: *trace, result: res}); err != nil {
				fmt.Fprintf(stderr, "bench: %v\n", err)
				return 2
			}
		}
		fmt.Fprintln(stdout, string(line))
		if !res.Correct {
			code = 1
		}
	}
	return code
}

// measure runs one workload in its own scratch directory and prints its
// metric table; a traced run also writes its spans and counters.
func measure(w workload, opts options, traced bool, traceDir string, stdout, stderr io.Writer) (result, error) {
	if err := os.MkdirAll(opts.dir, 0o755); err != nil {
		return result{}, err
	}
	dir, err := os.MkdirTemp(opts.dir, w.name+"-")
	if err != nil {
		return result{}, err
	}
	defer os.RemoveAll(dir)
	opts.dir = dir

	lay := newLayers(nil)
	var base string
	var fr *recorderFiles
	if traced {
		if err := os.MkdirAll(traceDir, 0o755); err != nil {
			return result{}, err
		}
		base = filepath.Join(traceDir, fmt.Sprintf("%s-seed%d", w.name, opts.seed))
		fr = newRecorderFiles(base)
		lay = newLayers(fr.Recorder)
	}
	r := newRun(opts, lay)
	if err := r.execute(w); err != nil {
		return result{}, err
	}
	res := r.result(traced)
	printTable(stdout, w.name, r, res, traced)
	for _, e := range r.errs {
		fmt.Fprintf(stderr, "bench: %s: %s\n", w.name, e)
	}
	if traced {
		printPhases(stderr, lay)
		if err := fr.flush(lay); err != nil {
			return result{}, err
		}
		fmt.Fprintf(stderr, "bench: spans in %s.trace.json, counters in %s.metrics.jsonl\n", base, base)
	}
	return res, nil
}

// record is one line of an -out file.
type record struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    int    `json:"trace"`
	result
}

func appendRecord(path string, rec record) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// readRecords reads an -out file.
func readRecords(path string) ([]record, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var recs []record
	for i, line := range strings.Split(string(data), "\n") {
		if strings.TrimSpace(line) == "" {
			continue
		}
		var rec record
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, i+1, err)
		}
		if rec.Workload == "" || rec.Metrics == nil {
			return nil, fmt.Errorf("%s:%d: not a benchmark result", path, i+1)
		}
		recs = append(recs, rec)
	}
	if len(recs) == 0 {
		return nil, errors.New(path + ": no results")
	}
	return recs, nil
}

// sortedKeys returns a map's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
