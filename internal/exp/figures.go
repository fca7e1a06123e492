package exp

import (
	"fmt"
	"strings"

	"repro/internal/arch"
	"repro/internal/cdfg"
	"repro/internal/core"
	"repro/internal/kernels"
	"repro/internal/trace"
)

// awareConfigs are the configurations the memory-aware flows are
// evaluated on in Figs 6–8 (the basic flow runs on HOM64).
func awareConfigs() []arch.ConfigName {
	return []arch.ConfigName{arch.HOM64, arch.HOM32, arch.HET1, arch.HET2}
}

// Fig2 reproduces the paper's Fig 2: the per-tile context-memory
// occupancy of the basic (memory-unaware) mapping of matrix
// multiplication on HOM64 — load/store tiles are hot-spots while most
// context memory elsewhere sits unused.
type Fig2 struct {
	Cell     *Cell
	Capacity []int
}

// RunFig2 evaluates the experiment.
func (r *Runner) RunFig2() (*Fig2, error) {
	c := r.Run("MatM", core.FlowBasic, arch.HOM64)
	if !c.OK {
		return nil, fmt.Errorf("exp: Fig2 baseline failed: %s", c.Fail)
	}
	grid := arch.MustGrid(arch.HOM64)
	capacity := make([]int, grid.NumTiles())
	for i := range capacity {
		capacity[i] = grid.Tile(arch.TileID(i)).CMWords
	}
	return &Fig2{Cell: c, Capacity: capacity}, nil
}

// LSUUtilization returns the mean occupancy of the load/store tiles.
func (f *Fig2) LSUUtilization() float64 { return f.meanUtil(0, 8) }

// RestUtilization returns the mean occupancy of the remaining tiles.
func (f *Fig2) RestUtilization() float64 { return f.meanUtil(8, 16) }

func (f *Fig2) meanUtil(from, to int) float64 {
	sum := 0.0
	for i := from; i < to; i++ {
		sum += float64(f.Cell.TileWords[i]) / float64(f.Capacity[i])
	}
	return sum / float64(to-from)
}

// Render prints the figure.
func (f *Fig2) Render() string {
	s := trace.Utilization(
		"Fig 2 — context-memory occupancy, basic mapping of MatM on HOM64 (tiles 1-8 have LSUs)",
		f.Cell.TileWords, f.Capacity)
	s += fmt.Sprintf("  mean occupancy: LS tiles %.0f%%, other tiles %.0f%%\n",
		100*f.LSUUtilization(), 100*f.RestUtilization())
	return s
}

// Fig5 reproduces the paper's Fig 5: the number of moves and pnops under
// the weighted CDFG traversal normalized to the forward traversal, per
// kernel (the paper plots FFT and reports the same trend elsewhere).
type Fig5 struct {
	Kernels    []string
	MoveRatio  []float64 // weighted / forward
	PnopRatio  []float64
	FwdMoves   []int
	WMoves     []int
	FwdPnops   []int
	WPnops     []int
	FailedFwd  []bool
	FailedWght []bool
}

// fig5Jobs lists the cells Fig 5 needs, as prefetch closures.
func (r *Runner) fig5Jobs() []func(int) {
	var jobs []func(int)
	for _, name := range kernels.Names() {
		for _, trav := range []cdfg.TraversalKind{cdfg.TraverseForward, cdfg.TraverseWeighted} {
			jobs = append(jobs, func(tid int) { r.run(tid, name, core.FlowBasic, arch.HOM64, trav) })
		}
	}
	return jobs
}

// RunFig5 evaluates the traversal comparison on every kernel with the
// basic flow (traversal is the only variable).
func (r *Runner) RunFig5() (*Fig5, error) {
	r.prefetch(r.fig5Jobs())
	f := &Fig5{}
	for _, name := range kernels.Names() {
		fwd := r.RunTraversal(name, core.FlowBasic, arch.HOM64, cdfg.TraverseForward)
		wgt := r.RunTraversal(name, core.FlowBasic, arch.HOM64, cdfg.TraverseWeighted)
		f.Kernels = append(f.Kernels, name)
		f.FailedFwd = append(f.FailedFwd, !fwd.OK)
		f.FailedWght = append(f.FailedWght, !wgt.OK)
		if !fwd.OK || !wgt.OK {
			f.MoveRatio = append(f.MoveRatio, 0)
			f.PnopRatio = append(f.PnopRatio, 0)
			f.FwdMoves = append(f.FwdMoves, 0)
			f.WMoves = append(f.WMoves, 0)
			f.FwdPnops = append(f.FwdPnops, 0)
			f.WPnops = append(f.WPnops, 0)
			continue
		}
		f.FwdMoves = append(f.FwdMoves, fwd.Moves)
		f.WMoves = append(f.WMoves, wgt.Moves)
		f.FwdPnops = append(f.FwdPnops, fwd.Pnops)
		f.WPnops = append(f.WPnops, wgt.Pnops)
		f.MoveRatio = append(f.MoveRatio, ratio(wgt.Moves, fwd.Moves))
		f.PnopRatio = append(f.PnopRatio, ratio(wgt.Pnops, fwd.Pnops))
	}
	return f, nil
}

func ratio(a, b int) float64 {
	if b == 0 {
		if a == 0 {
			return 1
		}
		return float64(a)
	}
	return float64(a) / float64(b)
}

// Render prints the figure.
func (f *Fig5) Render() string {
	t := trace.NewTable(
		"Fig 5 — weighted vs forward CDFG traversal (basic flow, HOM64): moves and pnops, weighted normalized to forward",
		"kernel", "moves fwd", "moves wgt", "move ratio", "pnops fwd", "pnops wgt", "pnop ratio")
	for i, k := range f.Kernels {
		t.Add(k, f.FwdMoves[i], f.WMoves[i], f.MoveRatio[i], f.FwdPnops[i], f.WPnops[i], f.PnopRatio[i])
	}
	return t.String()
}

// LatencyFig is the shared shape of Figs 6, 7 and 8: per kernel and
// configuration, the latency of a mapping flow normalized to the basic
// mapping on HOM64; zero means no mapping was found.
type LatencyFig struct {
	Flow    core.Flow
	Kernels []string
	Configs []arch.ConfigName
	// Norm[k][c] is normalized latency (0 = no mapping).
	Norm [][]float64
	// Cells[k][c] holds the full evaluation.
	Cells [][]*Cell
	// Base[k] is the basic/HOM64 baseline cell.
	Base []*Cell
}

// latencyFigJobs lists the cells one of Figs 6–8 needs.
func (r *Runner) latencyFigJobs(flow core.Flow) []func(int) {
	var jobs []func(int)
	for _, name := range kernels.Names() {
		jobs = append(jobs, func(tid int) { r.run(tid, name, core.FlowBasic, arch.HOM64) })
		for _, cfg := range awareConfigs() {
			jobs = append(jobs, func(tid int) { r.run(tid, name, flow, cfg) })
		}
	}
	return jobs
}

// RunLatencyFig evaluates one of Figs 6–8 for the given flow.
func (r *Runner) RunLatencyFig(flow core.Flow) (*LatencyFig, error) {
	r.prefetch(r.latencyFigJobs(flow))
	f := &LatencyFig{Flow: flow, Configs: awareConfigs()}
	for _, name := range kernels.Names() {
		base := r.Baseline(name)
		if !base.OK {
			return nil, fmt.Errorf("exp: basic baseline for %s failed: %s", name, base.Fail)
		}
		var norms []float64
		var cells []*Cell
		for _, cfg := range f.Configs {
			c := r.Run(name, flow, cfg)
			cells = append(cells, c)
			if c.OK {
				norms = append(norms, float64(c.Cycles)/float64(base.Cycles))
			} else {
				norms = append(norms, 0)
			}
		}
		f.Kernels = append(f.Kernels, name)
		f.Norm = append(f.Norm, norms)
		f.Cells = append(f.Cells, cells)
		f.Base = append(f.Base, base)
	}
	return f, nil
}

// Failures counts (kernel, config) cells with no mapping.
func (f *LatencyFig) Failures() int {
	n := 0
	for _, row := range f.Norm {
		for _, v := range row {
			if v == 0 {
				n++
			}
		}
	}
	return n
}

// Render prints the figure.
func (f *LatencyFig) Render() string {
	name := map[core.Flow]string{
		core.FlowACMAP: "Fig 6 — latency, basic+ACMAP",
		core.FlowECMAP: "Fig 7 — latency, basic+ACMAP+ECMAP",
		core.FlowCAB:   "Fig 8 — latency, basic+ACMAP+ECMAP+CAB",
	}[f.Flow]
	headers := []string{"kernel"}
	for _, c := range f.Configs {
		headers = append(headers, string(c))
	}
	t := trace.NewTable(name+" normalized to basic mapping on HOM64 (0 = no mapping)", headers...)
	for i, k := range f.Kernels {
		row := []any{k}
		for _, v := range f.Norm[i] {
			if v == 0 {
				row = append(row, "0 (none)")
			} else {
				row = append(row, v)
			}
		}
		t.Add(row...)
	}
	return t.String() + fmt.Sprintf("cells without a mapping: %d\n", f.Failures())
}

// Fig9 reproduces the compilation-time comparison: the average mapping
// time of each flow over all kernels (and, for the aware flows, over the
// aware configurations), normalized to the basic flow.
type Fig9 struct {
	Flows   []core.Flow
	Seconds []float64 // average wall-clock per mapping
	Norm    []float64 // normalized to basic
}

// fig9Jobs lists the cells Fig 9 needs: the full flow×kernel×config grid.
func (r *Runner) fig9Jobs() []func(int) {
	var jobs []func(int)
	for _, flow := range core.Flows() {
		for _, name := range kernels.Names() {
			if flow == core.FlowBasic {
				jobs = append(jobs, func(tid int) { r.run(tid, name, flow, arch.HOM64) })
				continue
			}
			for _, cfg := range awareConfigs() {
				jobs = append(jobs, func(tid int) { r.run(tid, name, flow, cfg) })
			}
		}
	}
	return jobs
}

// RunFig9 evaluates the compile-time figure. Mapping attempts that end
// without a solution still count — the paper's compile times include the
// full pruning work.
func (r *Runner) RunFig9() (*Fig9, error) {
	r.prefetch(r.fig9Jobs())
	f := &Fig9{Flows: core.Flows()}
	for _, flow := range f.Flows {
		total, n := 0.0, 0
		for _, name := range kernels.Names() {
			if flow == core.FlowBasic {
				c := r.Run(name, flow, arch.HOM64)
				total += c.CompileTime.Seconds()
				n++
				continue
			}
			for _, cfg := range awareConfigs() {
				c := r.Run(name, flow, cfg)
				total += c.CompileTime.Seconds()
				n++
			}
		}
		f.Seconds = append(f.Seconds, total/float64(n))
	}
	for _, s := range f.Seconds {
		f.Norm = append(f.Norm, s/f.Seconds[0])
	}
	return f, nil
}

// Render prints the figure.
func (f *Fig9) Render() string {
	labels := make([]string, len(f.Flows))
	for i, fl := range f.Flows {
		labels[i] = fl.String()
	}
	s := trace.Bars("Fig 9 — average compilation time per mapping, normalized to the basic flow", 40, labels, f.Norm)
	for i := range f.Flows {
		s += fmt.Sprintf("  %-22s %.3f s avg\n", labels[i], f.Seconds[i])
	}
	return s
}

// Fig10 reproduces the execution-time comparison against the or1k CPU:
// basic mapping on HOM64 plus the full context-aware mapping on HET1 and
// HET2, as CPU-cycles / CGRA-cycles speedups.
type Fig10 struct {
	Kernels   []string
	CPUCycles []int64
	// Speedup[k] = {basic HOM64, aware HET1, aware HET2}; 0 = no mapping.
	Speedup [][3]float64
}

// cpuCompareJobs lists the cells Fig 10 and Table II share: the CPU
// baseline plus basic/HOM64 and CAB on the heterogeneous configs.
func (r *Runner) cpuCompareJobs() []func(int) {
	var jobs []func(int)
	for _, name := range kernels.Names() {
		jobs = append(jobs,
			// Cache warm-up only: the serial pass reports CPU errors.
			func(int) { _, _ = r.CPU(name) },
			func(tid int) { r.run(tid, name, core.FlowBasic, arch.HOM64) },
			func(tid int) { r.run(tid, name, core.FlowCAB, arch.HET1) },
			func(tid int) { r.run(tid, name, core.FlowCAB, arch.HET2) })
	}
	return jobs
}

// RunFig10 evaluates the CPU comparison.
func (r *Runner) RunFig10() (*Fig10, error) {
	r.prefetch(r.cpuCompareJobs())
	f := &Fig10{}
	for _, name := range kernels.Names() {
		cc, err := r.CPU(name)
		if err != nil {
			return nil, err
		}
		var s [3]float64
		cells := []*Cell{
			r.Run(name, core.FlowBasic, arch.HOM64),
			r.Run(name, core.FlowCAB, arch.HET1),
			r.Run(name, core.FlowCAB, arch.HET2),
		}
		for i, c := range cells {
			if c.OK {
				s[i] = float64(cc.Cycles) / float64(c.Cycles)
			}
		}
		f.Kernels = append(f.Kernels, name)
		f.CPUCycles = append(f.CPUCycles, cc.Cycles)
		f.Speedup = append(f.Speedup, s)
	}
	return f, nil
}

// MeanSpeedup returns the average speedup of column i over kernels with
// a mapping.
func (f *Fig10) MeanSpeedup(col int) float64 {
	sum, n := 0.0, 0
	for _, s := range f.Speedup {
		if s[col] > 0 {
			sum += s[col]
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// Render prints the figure.
func (f *Fig10) Render() string {
	t := trace.NewTable(
		"Fig 10 — speedup over the or1k CPU (CPU cycles / CGRA cycles)",
		"kernel", "CPU cycles", "basic HOM64", "aware HET1", "aware HET2")
	for i, k := range f.Kernels {
		t.Add(k, f.CPUCycles[i], f.Speedup[i][0], f.Speedup[i][1], f.Speedup[i][2])
	}
	return t.String() + fmt.Sprintf("mean speedup: basic %.1fx, aware HET1 %.1fx, aware HET2 %.1fx\n",
		f.MeanSpeedup(0), f.MeanSpeedup(1), f.MeanSpeedup(2))
}

// Fig11 reproduces the area comparison of the CPU and the four CGRA
// configurations.
type Fig11 struct {
	Designs []string
	Areas   []float64 // µm²
	PerCPU  []float64 // normalized to the CPU
	Break   []string  // rendered breakdowns
}

// RunFig11 evaluates the area figure.
func (r *Runner) RunFig11() (*Fig11, error) {
	f := &Fig11{}
	cpuArea := r.Params.CPUArea()
	add := func(name string, a interface {
		Total() float64
	}, detail string) {
		f.Designs = append(f.Designs, name)
		f.Areas = append(f.Areas, a.Total())
		f.PerCPU = append(f.PerCPU, a.Total()/cpuArea.Total())
		f.Break = append(f.Break, detail)
	}
	add("CPU", cpuArea, fmt.Sprintf("core %.0f, instr mem %.0f, data mem %.0f",
		cpuArea.PENonCM, cpuArea.CM, cpuArea.DataMem))
	for _, cfg := range awareConfigs() {
		a := r.Params.CGRAArea(arch.MustGrid(cfg))
		add(string(cfg), a, fmt.Sprintf("PEs %.0f, CM %.0f, LSU %.0f, global %.0f, data mem %.0f",
			a.PENonCM, a.CM, a.LSU, a.Global, a.DataMem))
	}
	return f, nil
}

// Render prints the figure.
func (f *Fig11) Render() string {
	t := trace.NewTable("Fig 11 — area comparison (µm², 28nm-style model)",
		"design", "total", "vs CPU", "breakdown")
	for i := range f.Designs {
		t.Add(f.Designs[i], fmt.Sprintf("%.0f", f.Areas[i]),
			fmt.Sprintf("%.2fx", f.PerCPU[i]), f.Break[i])
	}
	return t.String()
}

// TableII reproduces the energy table: per kernel, the energy of the CPU,
// the basic mapping on HOM64, and the context-aware mapping on HET1 and
// HET2, with the paper's gain columns.
type TableII struct {
	Kernels []string
	CPU     []float64 // µJ
	Basic   []float64 // µJ, 0 = no mapping
	HET1    []float64
	HET2    []float64
}

// RunTableII evaluates the energy table.
func (r *Runner) RunTableII() (*TableII, error) {
	r.prefetch(r.cpuCompareJobs())
	t := &TableII{}
	for _, name := range kernels.Names() {
		cc, err := r.CPU(name)
		if err != nil {
			return nil, err
		}
		t.Kernels = append(t.Kernels, name)
		t.CPU = append(t.CPU, cc.Energy.Total())
		t.Basic = append(t.Basic, energyOf(r.Run(name, core.FlowBasic, arch.HOM64)))
		t.HET1 = append(t.HET1, energyOf(r.Run(name, core.FlowCAB, arch.HET1)))
		t.HET2 = append(t.HET2, energyOf(r.Run(name, core.FlowCAB, arch.HET2)))
	}
	return t, nil
}

func energyOf(c *Cell) float64 {
	if !c.OK {
		return 0
	}
	return c.Energy.Total()
}

// GainVsBasic returns the mean HET-over-basic energy gain over kernels
// where both mapped (averaging HET1 and HET2 like the paper's summary).
func (t *TableII) GainVsBasic() (mean, min, max float64) {
	min, max = 1e9, 0.0
	sum, n := 0.0, 0
	for i := range t.Kernels {
		for _, het := range []float64{t.HET1[i], t.HET2[i]} {
			if t.Basic[i] > 0 && het > 0 {
				g := t.Basic[i] / het
				sum += g
				n++
				if g < min {
					min = g
				}
				if g > max {
					max = g
				}
			}
		}
	}
	if n == 0 {
		return 0, 0, 0
	}
	return sum / float64(n), min, max
}

// GainVsCPU returns the mean aware-mapping energy gain over the CPU.
func (t *TableII) GainVsCPU() (mean, min, max float64) {
	min, max = 1e9, 0.0
	sum, n := 0.0, 0
	for i := range t.Kernels {
		for _, het := range []float64{t.HET1[i], t.HET2[i]} {
			if het > 0 {
				g := t.CPU[i] / het
				sum += g
				n++
				if g < min {
					min = g
				}
				if g > max {
					max = g
				}
			}
		}
	}
	if n == 0 {
		return 0, 0, 0
	}
	return sum / float64(n), min, max
}

// Render prints the table.
func (t *TableII) Render() string {
	tb := trace.NewTable("Table II — energy (µJ): CPU vs basic/HOM64 vs context-aware/HET1,HET2",
		"kernel", "CPU", "basic HOM64", "xCPU", "aware HET1", "xCPU", "aware HET2", "xCPU")
	gain := func(cpu, v float64) string {
		if v == 0 {
			return "-"
		}
		return fmt.Sprintf("%.0fx", cpu/v)
	}
	for i, k := range t.Kernels {
		tb.Add(k,
			fmt.Sprintf("%.4f", t.CPU[i]),
			fmt.Sprintf("%.4f", t.Basic[i]), gain(t.CPU[i], t.Basic[i]),
			fmt.Sprintf("%.4f", t.HET1[i]), gain(t.CPU[i], t.HET1[i]),
			fmt.Sprintf("%.4f", t.HET2[i]), gain(t.CPU[i], t.HET2[i]))
	}
	s := tb.String()
	m, lo, hi := t.GainVsBasic()
	s += fmt.Sprintf("context-aware vs basic mapping energy gain: avg %.2fx (min %.2fx, max %.2fx)\n", m, lo, hi)
	m, lo, hi = t.GainVsCPU()
	s += fmt.Sprintf("context-aware vs CPU energy gain:           avg %.1fx (min %.1fx, max %.1fx)\n", m, lo, hi)
	return s
}

// DeadContext is the dead-context-elimination table: per kernel, the
// context words the mapper emitted and the words the static analyzer
// (internal/static) proves strippable, for the basic mapping on HOM64
// and the context-aware mapping on HET1 and HET2 — the same cell trio
// Table II reports energy for.
type DeadContext struct {
	Kernels []string
	// Cells[k] = {basic HOM64, aware HET1, aware HET2}; nil = no mapping.
	Cells [][3]*Cell
}

// RunDeadContext evaluates the dead-context table.
func (r *Runner) RunDeadContext() (*DeadContext, error) {
	r.prefetch(r.cpuCompareJobs())
	t := &DeadContext{}
	cellOrNil := func(c *Cell) *Cell {
		if !c.OK {
			return nil
		}
		return c
	}
	for _, name := range kernels.Names() {
		t.Kernels = append(t.Kernels, name)
		t.Cells = append(t.Cells, [3]*Cell{
			cellOrNil(r.Run(name, core.FlowBasic, arch.HOM64)),
			cellOrNil(r.Run(name, core.FlowCAB, arch.HET1)),
			cellOrNil(r.Run(name, core.FlowCAB, arch.HET2)),
		})
	}
	return t, nil
}

// TotalSaved sums the reclaimed words across all mapped cells.
func (t *DeadContext) TotalSaved() (saved, words int) {
	for _, row := range t.Cells {
		for _, c := range row {
			if c != nil {
				saved += c.DeadWords
				words += c.TotalWords
			}
		}
	}
	return saved, words
}

// Render prints the table.
func (t *DeadContext) Render() string {
	tb := trace.NewTable("Dead context — words reclaimed by static dead-context elimination",
		"kernel", "basic HOM64", "dead", "aware HET1", "dead", "aware HET2", "dead")
	col := func(c *Cell) (string, string) {
		if c == nil {
			return "-", "-"
		}
		dead := fmt.Sprintf("%d", c.DeadWords)
		if c.DeadWords > 0 {
			dead = fmt.Sprintf("%d (%.0f%%)", c.DeadWords, 100*float64(c.DeadWords)/float64(c.TotalWords))
		}
		return fmt.Sprintf("%d", c.TotalWords), dead
	}
	for i, k := range t.Kernels {
		w0, d0 := col(t.Cells[i][0])
		w1, d1 := col(t.Cells[i][1])
		w2, d2 := col(t.Cells[i][2])
		tb.Add(k, w0, d0, w1, d1, w2, d2)
	}
	s := tb.String()
	saved, words := t.TotalSaved()
	pct := 0.0
	if words > 0 {
		pct = 100 * float64(saved) / float64(words)
	}
	s += fmt.Sprintf("dead-context elimination reclaims %d of %d context words (%.1f%%) across mapped cells\n",
		saved, words, pct)
	return s
}

// PrefetchAll warms the cell cache for the whole evaluation on the
// runner's worker pool. RenderAll calls it first so every figure then
// renders from cached cells; calling it up front is also the cheapest way
// to parallelize a custom sequence of figure runs.
func (r *Runner) PrefetchAll() {
	var jobs []func(int)
	jobs = append(jobs, func(tid int) { r.run(tid, "MatM", core.FlowBasic, arch.HOM64) })
	jobs = append(jobs, r.fig5Jobs()...)
	// fig9Jobs covers the latency figures' grid (Figs 6-8) as well.
	jobs = append(jobs, r.fig9Jobs()...)
	jobs = append(jobs, r.cpuCompareJobs()...)
	r.prefetch(jobs)
}

// RenderAll runs every experiment and concatenates the reports — the
// whole evaluation section in one call.
func (r *Runner) RenderAll() (string, error) {
	r.PrefetchAll()
	var sb strings.Builder
	f2, err := r.RunFig2()
	if err != nil {
		return "", err
	}
	sb.WriteString(f2.Render() + "\n")
	f5, err := r.RunFig5()
	if err != nil {
		return "", err
	}
	sb.WriteString(f5.Render() + "\n")
	for _, flow := range []core.Flow{core.FlowACMAP, core.FlowECMAP, core.FlowCAB} {
		lf, err := r.RunLatencyFig(flow)
		if err != nil {
			return "", err
		}
		sb.WriteString(lf.Render() + "\n")
	}
	f9, err := r.RunFig9()
	if err != nil {
		return "", err
	}
	sb.WriteString(f9.Render() + "\n")
	f10, err := r.RunFig10()
	if err != nil {
		return "", err
	}
	sb.WriteString(f10.Render() + "\n")
	f11, err := r.RunFig11()
	if err != nil {
		return "", err
	}
	sb.WriteString(f11.Render() + "\n")
	t2, err := r.RunTableII()
	if err != nil {
		return "", err
	}
	sb.WriteString(t2.Render() + "\n")
	dc, err := r.RunDeadContext()
	if err != nil {
		return "", err
	}
	sb.WriteString(dc.Render())
	return sb.String(), nil
}
