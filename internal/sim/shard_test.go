package sim_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/arch"
	"repro/internal/asm"
	"repro/internal/cdfg"
	"repro/internal/core"
	"repro/internal/kernels"
	"repro/internal/obs"
	"repro/internal/oracle"
	"repro/internal/sim"
)

// shardRun is everything one traced RunBatch produces.
type shardRun struct {
	results  []*sim.Result
	errs     []string
	mems     []cdfg.Memory
	events   []obs.Event
	counters []obs.MetricValue
}

// runSharded runs a traced B-lane batch at the given GOMAXPROCS.
func runSharded(t *testing.T, prog *asm.Program, inputs []cdfg.Memory, procs int) shardRun {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	// Decode once without a recorder, so that neither run's counters
	// hold the wall-clock sim.engine.predecode_ns.
	if _, err := sim.New(prog); err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	sink := obs.NewBufferSink(0)
	s, err := sim.New(prog, sim.WithObs(obs.NewRecorder(reg, sink)))
	if err != nil {
		t.Fatal(err)
	}
	out := shardRun{mems: make([]cdfg.Memory, len(inputs)), errs: make([]string, len(inputs))}
	for l := range inputs {
		out.mems[l] = inputs[l].Clone()
	}
	var runErr error
	out.results, runErr = s.Engine().RunBatch(out.mems)
	if runErr != nil {
		for l, e := range runErr.(*sim.BatchError).Errs {
			if e != nil {
				out.errs[l] = e.Error()
			}
		}
	}
	out.events = sink.Events()
	out.counters = reg.Snapshot()
	return out
}

// faultyLanes returns 64 perturbed lanes of mem in which lane 16w+3 of
// each 16-lane shard gets only the first w quarters of the memory, so
// its loads or stores leave memory at a different point in each shard
// (lane 3's memory is empty).
func faultyLanes(mem cdfg.Memory) []cdfg.Memory {
	lanes := perturbedLanes(mem, 64)
	for w := 0; w < 4; w++ {
		l := 16*w + 3
		lanes[l] = lanes[l][:len(mem)*w/4]
	}
	return lanes
}

// TestShardedBatchDeterminism runs 64-lane traced batches of every
// kernel and of the first 20 oracle sweep graphs at GOMAXPROCS 1 (one
// shard) and 4 (four 16-lane shards), with perturbed inputs and one
// faulting lane in each shard. Results, errors, final memories, the
// event stream and the counters must be identical. The test is not
// trimmed under the race detector: it is the race pass's coverage of
// the shard goroutines.
func TestShardedBatchDeterminism(t *testing.T) {
	type cell struct {
		name string
		prog *asm.Program
		mem  cdfg.Memory
		// faults marks the kernels, whose every truncated lane must fail.
		faults bool
	}
	var cells []cell
	for _, k := range kernels.All() {
		cells = append(cells, cell{k.Name, buildProgram(t, k.Build()), k.Init(), true})
	}
	for i := 0; i < 20; i++ {
		seed := int64(sweepSeed + i)
		g, mem := cdfg.Generate(rand.New(rand.NewSource(seed)), cdfg.DefaultGenConfig())
		for _, c := range oracle.AllCells() {
			opt := c.Mode.Options()
			opt.Seed = seed
			m, err := core.Map(g, arch.MustGrid(c.Config), opt)
			if err != nil {
				continue
			}
			if ok, _ := m.FitsMemory(); !ok {
				continue
			}
			prog, err := asm.Assemble(m)
			if err != nil {
				t.Fatalf("seed %d %s: assemble: %v", seed, c, err)
			}
			cells = append(cells, cell{fmt.Sprintf("seed %d %s", seed, c), prog, mem, false})
			break
		}
	}
	for _, c := range cells {
		inputs := faultyLanes(c.mem)
		one := runSharded(t, c.prog, inputs, 1)
		four := runSharded(t, c.prog, inputs, 4)
		for l := range inputs {
			if one.errs[l] != four.errs[l] {
				t.Fatalf("%s lane %d: error %q at GOMAXPROCS 4, %q at 1", c.name, l, four.errs[l], one.errs[l])
			}
			if c.faults && l%16 == 3 && one.errs[l] == "" {
				t.Fatalf("%s lane %d: truncated memory did not fault", c.name, l)
			}
			if !reflect.DeepEqual(one.results[l], four.results[l]) {
				t.Fatalf("%s lane %d: result diverged across GOMAXPROCS\n  1: %+v\n  4: %+v", c.name, l, one.results[l], four.results[l])
			}
			if !reflect.DeepEqual(one.mems[l], four.mems[l]) {
				t.Fatalf("%s lane %d: final memory diverged across GOMAXPROCS", c.name, l)
			}
		}
		if len(one.events) == 0 {
			t.Fatalf("%s: traced batch emitted no events", c.name)
		}
		if !reflect.DeepEqual(one.events, four.events) {
			t.Fatalf("%s: event stream diverged across GOMAXPROCS (%d vs %d events)", c.name, len(one.events), len(four.events))
		}
		if !reflect.DeepEqual(one.counters, four.counters) {
			t.Fatalf("%s: counters diverged across GOMAXPROCS\n  1: %+v\n  4: %+v", c.name, one.counters, four.counters)
		}
	}
}
