// Package repro's benchmark harness: one benchmark per table and figure
// of the paper's evaluation (Figs 2, 5–11 and Table II), plus ablation
// benchmarks for the design choices DESIGN.md flags and microbenchmarks
// of the pipeline stages.
//
// Each figure benchmark performs the complete experiment (map + assemble
// + simulate + verify for every cell) per iteration and reports the
// headline quantities of the corresponding figure as custom metrics.
package repro

import (
	"testing"

	"repro/internal/arch"
	"repro/internal/asm"
	"repro/internal/cdfg"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/exp"
	"repro/internal/kernels"
	"repro/internal/sim"
)

// BenchmarkFig2 regenerates the context-memory occupancy figure: the
// basic mapping of MatM on HOM64 with its LS-tile hot-spots.
func BenchmarkFig2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := exp.NewRunner()
		f, err := r.RunFig2()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(f.LSUUtilization()*100, "ls-tile-%")
		b.ReportMetric(f.RestUtilization()*100, "other-tile-%")
	}
}

// BenchmarkFig5 regenerates the weighted-vs-forward traversal comparison
// over all kernels and reports the mean move and pnop ratios.
func BenchmarkFig5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := exp.NewRunner()
		f, err := r.RunFig5()
		if err != nil {
			b.Fatal(err)
		}
		var mv, pn float64
		n := 0
		for j := range f.Kernels {
			if f.MoveRatio[j] > 0 {
				mv += f.MoveRatio[j]
				pn += f.PnopRatio[j]
				n++
			}
		}
		b.ReportMetric(mv/float64(n), "move-ratio")
		b.ReportMetric(pn/float64(n), "pnop-ratio")
	}
}

func benchLatencyFig(b *testing.B, flow core.Flow) {
	for i := 0; i < b.N; i++ {
		r := exp.NewRunner()
		f, err := r.RunLatencyFig(flow)
		if err != nil {
			b.Fatal(err)
		}
		var sum float64
		n := 0
		for _, row := range f.Norm {
			for _, v := range row {
				if v > 0 {
					sum += v
					n++
				}
			}
		}
		b.ReportMetric(float64(f.Failures()), "no-mapping-cells")
		b.ReportMetric(sum/float64(n), "mean-norm-latency")
	}
}

// BenchmarkFig6 regenerates the basic+ACMAP latency comparison.
func BenchmarkFig6(b *testing.B) { benchLatencyFig(b, core.FlowACMAP) }

// BenchmarkFig7 regenerates the basic+ACMAP+ECMAP latency comparison.
func BenchmarkFig7(b *testing.B) { benchLatencyFig(b, core.FlowECMAP) }

// BenchmarkFig8 regenerates the full context-aware flow's latency
// comparison (ACMAP+ECMAP+CAB).
func BenchmarkFig8(b *testing.B) { benchLatencyFig(b, core.FlowCAB) }

// BenchmarkFig9 regenerates the compilation-time comparison and reports
// the aware flow's slowdown over the basic flow.
func BenchmarkFig9(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := exp.NewRunner()
		f, err := r.RunFig9()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(f.Norm[len(f.Norm)-1], "cab-vs-basic")
		b.ReportMetric(f.Seconds[0], "basic-s")
	}
}

// BenchmarkFig10 regenerates the CPU execution-time comparison.
func BenchmarkFig10(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := exp.NewRunner()
		f, err := r.RunFig10()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(f.MeanSpeedup(0), "basic-speedup")
		b.ReportMetric(f.MeanSpeedup(1), "het1-speedup")
		b.ReportMetric(f.MeanSpeedup(2), "het2-speedup")
	}
}

// BenchmarkFig11 regenerates the area comparison.
func BenchmarkFig11(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := exp.NewRunner()
		f, err := r.RunFig11()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(f.PerCPU[1], "hom64-vs-cpu")
		b.ReportMetric(f.PerCPU[3], "het1-vs-cpu")
	}
}

// BenchmarkTableII regenerates the energy table and reports the paper's
// two headline gains.
func BenchmarkTableII(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := exp.NewRunner()
		t2, err := r.RunTableII()
		if err != nil {
			b.Fatal(err)
		}
		mean, _, _ := t2.GainVsBasic()
		b.ReportMetric(mean, "aware-vs-basic-energy")
		mean, _, _ = t2.GainVsCPU()
		b.ReportMetric(mean, "aware-vs-cpu-energy")
	}
}

// --- Ablation benchmarks (DESIGN.md §7) ---

func mapWith(b *testing.B, kernel string, cfg arch.ConfigName, tune func(*core.Options)) {
	b.Helper()
	k, err := kernels.ByName(kernel)
	if err != nil {
		b.Fatal(err)
	}
	g := k.Build()
	grid := arch.MustGrid(cfg)
	ok, cycles := 0, 0
	for i := 0; i < b.N; i++ {
		opt := core.DefaultOptions(core.FlowCAB)
		tune(&opt)
		m, err := core.Map(g, grid, opt)
		if err != nil {
			continue
		}
		ok++
		cycles += m.StaticCycles(nil)
	}
	b.ReportMetric(float64(ok)/float64(b.N), "mapped-fraction")
	if ok > 0 {
		b.ReportMetric(float64(cycles)/float64(ok), "static-cycles")
	}
}

// BenchmarkAblationBeamWidth sweeps the stochastic-pruning beam width:
// quality/compile-time trade of the paper's pruning threshold.
func BenchmarkAblationBeamWidth(b *testing.B) {
	for _, w := range []int{4, 12, 24, 48} {
		b.Run(benchName("beam", w), func(b *testing.B) {
			mapWith(b, "Convolution", arch.HET1, func(o *core.Options) { o.BeamWidth = w })
		})
	}
}

// BenchmarkAblationMaxHold sweeps the output-register hold window that
// trades routing moves against placement freedom.
func BenchmarkAblationMaxHold(b *testing.B) {
	for _, h := range []int{1, 3, 6} {
		b.Run(benchName("hold", h), func(b *testing.B) {
			mapWith(b, "FIR", arch.HET2, func(o *core.Options) { o.MaxHold = h })
		})
	}
}

// BenchmarkAblationRecompute toggles the recompute graph transformation.
func BenchmarkAblationRecompute(b *testing.B) {
	for _, on := range []bool{false, true} {
		name := "off"
		if on {
			name = "on"
		}
		b.Run(name, func(b *testing.B) {
			mapWith(b, "SepFilter", arch.HET1, func(o *core.Options) { o.Recompute = on })
		})
	}
}

// BenchmarkAblationTraversal compares the two CDFG traversals under the
// full aware flow.
func BenchmarkAblationTraversal(b *testing.B) {
	for _, tr := range []cdfg.TraversalKind{cdfg.TraverseForward, cdfg.TraverseWeighted} {
		tr := tr
		b.Run(tr.String(), func(b *testing.B) {
			mapWith(b, "FFT", arch.HET1, func(o *core.Options) { o.Traversal = tr })
		})
	}
}

func benchName(prefix string, v int) string {
	return prefix + "-" + string(rune('0'+v/10)) + string(rune('0'+v%10))
}

// --- Pipeline microbenchmarks ---

// BenchmarkMapFIR measures one full mapping of FIR with the aware flow.
func BenchmarkMapFIR(b *testing.B) {
	k, _ := kernels.ByName("FIR")
	g := k.Build()
	grid := arch.MustGrid(arch.HET1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Map(g, grid, core.DefaultOptions(core.FlowCAB)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimFIR measures the cycle-accurate simulation throughput.
func BenchmarkSimFIR(b *testing.B) {
	k, _ := kernels.ByName("FIR")
	m, err := core.Map(k.Build(), arch.MustGrid(arch.HET1), core.DefaultOptions(core.FlowCAB))
	if err != nil {
		b.Fatal(err)
	}
	prog, err := asm.Assemble(m)
	if err != nil {
		b.Fatal(err)
	}
	s, err := sim.New(prog)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var cycles int64
	for i := 0; i < b.N; i++ {
		res, err := s.Run(k.Init())
		if err != nil {
			b.Fatal(err)
		}
		cycles += res.Cycles
	}
	b.ReportMetric(float64(cycles)/float64(b.N), "cgra-cycles")
}

// BenchmarkCPUModelFIR measures the or1k model's execution speed.
func BenchmarkCPUModelFIR(b *testing.B) {
	k, _ := kernels.ByName("FIR")
	g := k.Build()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cpu.Run(g, k.Init(), cpu.DefaultCosts()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkInterpFIR measures the reference interpreter.
func BenchmarkInterpFIR(b *testing.B) {
	k, _ := kernels.ByName("FIR")
	g := k.Build()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cdfg.Interp(g, k.Init()); err != nil {
			b.Fatal(err)
		}
	}
}
