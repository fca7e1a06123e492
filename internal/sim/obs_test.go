package sim_test

import (
	"testing"

	"repro/internal/arch"
	"repro/internal/asm"
	"repro/internal/core"
	"repro/internal/kernels"
	"repro/internal/obs"
	"repro/internal/sim"
)

// totalActivity sums an activity report's per-tile counters.
func totalActivity(a *sim.ActivityReport) sim.TileCounters {
	var t sim.TileCounters
	for _, tc := range a.Tiles {
		t.Add(tc)
	}
	return t
}

// TestActivityDecomposition pins the op-class counter invariants the
// activity report is built on: the per-class counters must exactly
// partition the aggregate cycle and fetch counters.
func TestActivityDecomposition(t *testing.T) {
	s, k := build(t, "FIR", core.FlowCAB, arch.HET1)
	res, err := s.Run(k.Init())
	if err != nil {
		t.Fatal(err)
	}
	act := res.Activity()
	if act.Cycles != res.Cycles || len(act.Tiles) != len(res.Tiles) {
		t.Fatalf("activity report does not mirror the result: %+v", act)
	}
	for i, tc := range act.Tiles {
		if tc.ALUOps+tc.MemOps+tc.BranchOps != tc.OpCycles {
			t.Errorf("tile %d: op classes %d+%d+%d != OpCycles %d",
				i+1, tc.ALUOps, tc.MemOps, tc.BranchOps, tc.OpCycles)
		}
		if tc.OpCycles+tc.MoveCycles+tc.PnopFetches != tc.Fetches {
			t.Errorf("tile %d: fetch classes %d+%d+%d != Fetches %d",
				i+1, tc.OpCycles, tc.MoveCycles, tc.PnopFetches, tc.Fetches)
		}
	}
	total := totalActivity(act)
	if total.ALUOps == 0 || total.MemOps == 0 {
		t.Errorf("FIR ran with no ALU (%d) or memory (%d) operations", total.ALUOps, total.MemOps)
	}
	// The activity report is a copy, not a view.
	act.Tiles[0].ALUOps++
	if act.Tiles[0].ALUOps == res.Tiles[0].ALUOps {
		t.Error("ActivityReport aliases the live Result counters")
	}
}

// TestRunWithObs checks the simulator's recorder wiring: run counters in
// the registry and cycle-stamped block events on the PIDSim track.
func TestRunWithObs(t *testing.T) {
	k, err := kernels.ByName("FIR")
	if err != nil {
		t.Fatal(err)
	}
	m, err := core.Map(k.Build(), arch.MustGrid(arch.HET1), core.DefaultOptions(core.FlowCAB))
	if err != nil {
		t.Fatal(err)
	}
	prog, err := asm.Assemble(m)
	if err != nil {
		t.Fatal(err)
	}
	sink := obs.NewBufferSink(0)
	rec := obs.NewRecorder(obs.NewRegistry(), sink)
	s, err := sim.New(prog, sim.WithObs(rec))
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(k.Init())
	if err != nil {
		t.Fatal(err)
	}

	if got := rec.Counter("sim.cycles").Value(); got != res.Cycles {
		t.Errorf("sim.cycles = %d, want %d", got, res.Cycles)
	}
	total := totalActivity(res.Activity())
	if got := rec.Counter("sim.alu_ops").Value(); got != total.ALUOps {
		t.Errorf("sim.alu_ops = %d, want %d", got, total.ALUOps)
	}
	if got := rec.Counter("sim.crf_reads").Value(); got != total.CRFReads {
		t.Errorf("sim.crf_reads = %d, want %d", got, total.CRFReads)
	}

	var execs int64
	for _, n := range res.BlockExecs {
		execs += n
	}
	events := sink.Events()
	if int64(len(events)) != execs {
		t.Errorf("captured %d block events for %d block executions", len(events), execs)
	}
	var lastEnd float64
	for _, e := range events {
		if e.PID != obs.PIDSim || e.Ph != obs.PhaseComplete || e.Cat != "sim.block" {
			t.Fatalf("unexpected sim event %+v", e)
		}
		if e.TS < lastEnd {
			t.Fatalf("block event %q starts at cycle %v before previous block ended (%v)", e.Name, e.TS, lastEnd)
		}
		lastEnd = e.TS + e.Dur
	}
	if int64(lastEnd) != res.Cycles {
		t.Errorf("last block event ends at cycle %v, run took %d", lastEnd, res.Cycles)
	}
}
