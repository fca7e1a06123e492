package sim_test

import (
	"testing"

	"repro/internal/arch"
	"repro/internal/asm"
	"repro/internal/core"
	"repro/internal/kernels"
	"repro/internal/sim"
)

func build(t testing.TB, kernel string, flow core.Flow, cfg arch.ConfigName) (*sim.Sim, kernels.Kernel) {
	t.Helper()
	k, err := kernels.ByName(kernel)
	if err != nil {
		t.Fatal(err)
	}
	m, err := core.Map(k.Build(), arch.MustGrid(cfg), core.DefaultOptions(flow))
	if err != nil {
		t.Fatal(err)
	}
	prog, err := asm.Assemble(m)
	if err != nil {
		t.Fatal(err)
	}
	s, err := sim.New(prog)
	if err != nil {
		t.Fatal(err)
	}
	return s, k
}

// TestKernelsOnCGRA is the end-to-end correctness suite: every paper
// kernel mapped with the full aware flow on HET1, simulated, and checked
// against the golden reference.
func TestKernelsOnCGRA(t *testing.T) {
	if testing.Short() {
		t.Skip("full kernel simulations are slow")
	}
	for _, name := range kernels.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			cfg := arch.HET1
			if name == "NonSepFilter" {
				cfg = arch.HOM64 // tightest config this kernel instance fits reliably at speed
			}
			s, k := build(t, name, core.FlowCAB, cfg)
			res, tr, mem, err := s.RunVerified(k.Init())
			if err != nil {
				t.Fatal(err)
			}
			if err := k.Check(mem); err != nil {
				t.Fatal(err)
			}
			if res.Cycles <= 0 {
				t.Fatal("no cycles")
			}
			// Counters must be internally consistent.
			var fetches, idle, op, mv int64
			for _, tc := range res.Tiles {
				fetches += tc.Fetches
				idle += tc.IdleCycles
				op += tc.OpCycles
				mv += tc.MoveCycles
			}
			busy := op + mv
			execCycles := res.Cycles - res.StallCycles
			if busy+idle != execCycles*16 {
				t.Errorf("cycle accounting: busy %d + idle %d != 16×%d", busy, idle, execCycles)
			}
			if fetches == 0 || fetches > busy+idle {
				t.Errorf("fetches %d out of range", fetches)
			}
			// The interpreter trace and the simulator agree on control flow.
			var blocks int64
			for _, n := range res.BlockExecs {
				blocks += n
			}
			if int(blocks) != tr.Blocks {
				t.Errorf("block executions: sim %d vs interp %d", blocks, tr.Blocks)
			}
		})
	}
}

// TestStallAccounting checks that memory-port pressure produces global
// stalls exactly when concurrent accesses exceed the interconnect.
func TestStallAccounting(t *testing.T) {
	s, k := build(t, "MatM", core.FlowBasic, arch.HOM64)
	res, err := s.Run(k.Init())
	if err != nil {
		t.Fatal(err)
	}
	if res.StallCycles < 0 || res.StallCycles >= res.Cycles {
		t.Errorf("stalls %d vs cycles %d", res.StallCycles, res.Cycles)
	}
	var memOps int64
	for _, tc := range res.Tiles {
		memOps += tc.MemReads + tc.MemWrites
	}
	if memOps == 0 {
		t.Fatal("MatM must touch memory")
	}
	// Memory ops only on LSU tiles.
	for i, tc := range res.Tiles {
		if i >= 8 && tc.MemReads+tc.MemWrites > 0 {
			t.Errorf("non-LSU tile %d performed memory ops", i+1)
		}
	}
}

// TestConfigWords checks the reported configuration footprint.
func TestConfigWords(t *testing.T) {
	s, k := build(t, "FIR", core.FlowCAB, arch.HET2)
	res, err := s.Run(k.Init())
	if err != nil {
		t.Fatal(err)
	}
	if res.ConfigWords <= 0 || res.ConfigWords > 512 {
		t.Errorf("config words %d out of range for HET2", res.ConfigWords)
	}
}

// TestRunFromBinaryImage executes a program rebuilt purely from its saved
// context-memory image — the hardware loader path — and verifies the
// kernel output end to end.
func TestRunFromBinaryImage(t *testing.T) {
	k, err := kernels.ByName("FIR")
	if err != nil {
		t.Fatal(err)
	}
	g := k.Build()
	grid := arch.MustGrid(arch.HET1)
	m, err := core.Map(g, grid, core.DefaultOptions(core.FlowCAB))
	if err != nil {
		t.Fatal(err)
	}
	prog, err := asm.Assemble(m)
	if err != nil {
		t.Fatal(err)
	}
	data, err := asm.SaveImage(prog)
	if err != nil {
		t.Fatal(err)
	}
	img, err := asm.LoadImage(data)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := asm.ProgramFromImage(img, g, grid)
	if err != nil {
		t.Fatal(err)
	}
	s, err := sim.New(loaded)
	if err != nil {
		t.Fatal(err)
	}
	_, _, mem, err := s.RunVerified(k.Init())
	if err != nil {
		t.Fatal(err)
	}
	if err := k.Check(mem); err != nil {
		t.Fatal(err)
	}
}
