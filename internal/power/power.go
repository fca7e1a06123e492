// Package power is the analytical area and energy model substituting for
// the paper's Synopsys DC / PrimePower flow (STM 28nm UTBB FD-SOI, 0.6V,
// 25°C). Constants are calibrated to the paper's published anchors:
//
//   - a 64-word context memory is 40% of a PE's area (paper §I);
//   - the HOM64 CGRA is ≈2× the CPU area (Fig 11);
//   - context-memory fetch and leakage dominate tile power, so halving
//     the total context words roughly halves the array's energy at equal
//     latency (Table II's 2.3× average gain);
//   - configuration is a one-time cost proportional to the physical
//     context-memory size (the loosely coupled CGRA is configured once
//     for the full workload, and the controller initializes every word).
//
// The model is linear in the activity counters produced by the simulator
// and the CPU model, so every experiment re-derives energy from actual
// executions.
package power

import (
	"math"

	"repro/internal/arch"
	"repro/internal/cpu"
	"repro/internal/sim"
)

// Params holds the calibrated constants. Areas are in µm², energies in pJ
// (per event) or pJ/cycle (leakage).
type Params struct {
	// Area.
	CMAreaPerWord float64 // context memory, per word
	PENonCM       float64 // ALU + RRF + CRF + decoder + controller
	LSUArea       float64 // load/store unit, on LSU tiles
	GlobalArea    float64 // CGRA controller + global context memory
	NetArea       float64 // logarithmic interconnect
	DataMemArea   float64 // 32 kB data memory (shared by CPU and CGRA)
	CPUCoreArea   float64 // or1k core
	CPUIMemArea   float64 // CPU program memory + instruction cache

	// CGRA energy.
	FetchBase  float64 // context fetch, size-independent part
	FetchQuad  float64 // context fetch, ×(CM words)² part
	ALUEnergy  float64 // per executed operation
	MoveEnergy float64 // per executed move
	RFRead     float64
	RFWrite    float64
	CRFRead    float64
	MemAccess  float64 // data memory access through the interconnect
	LeakCM     float64 // per tile per cycle, ×(CM words)^LeakCMExp
	LeakCMExp  float64 // superlinear depth exponent of CM leakage
	LeakTile   float64 // per tile (non-CM) per cycle
	LeakGlobal float64 // controller + interconnect per cycle
	ConfigWord float64 // one-time configuration, per physical CM word

	// CPU energy.
	CPUInstr  float64 // base per-instruction energy (fetch+decode+issue)
	CPULoad   float64 // extra for loads
	CPUStore  float64 // extra for stores
	CPUMul    float64 // extra for multiplies
	CPUBranch float64 // extra for branches
	CPULeak   float64 // per cycle
}

// Default returns the calibrated 28nm-style parameter set.
func Default() Params {
	return Params{
		CMAreaPerWord: 85,
		PENonCM:       8160, // 64*85 = 5440 is exactly 40% of 13600
		LSUArea:       600,
		GlobalArea:    3200,
		NetArea:       2600,
		DataMemArea:   30000,
		CPUCoreArea:   58000,
		CPUIMemArea:   40550,

		FetchBase:  0.15,
		FetchQuad:  0.0008,
		ALUEnergy:  0.8,
		MoveEnergy: 0.35,
		RFRead:     0.15,
		RFWrite:    0.20,
		CRFRead:    0.10,
		MemAccess:  2.5,
		LeakCM:     0.004,
		LeakCMExp:  1.35,
		LeakTile:   0.04,
		LeakGlobal: 0.3,
		ConfigWord: 10.0,

		CPUInstr:  25.0,
		CPULoad:   28.0,
		CPUStore:  20.0,
		CPUMul:    10.0,
		CPUBranch: 6.0,
		CPULeak:   13.0,
	}
}

// FetchEnergy returns the energy of one context-word fetch from a CM of
// the given word count. The superlinear term models the longer bitlines
// and wider decode of larger memories at near-threshold voltage.
func (p Params) FetchEnergy(cmWords int) float64 {
	return p.FetchBase + p.FetchQuad*float64(cmWords)*float64(cmWords)
}

// CMLeak returns a tile's context-memory leakage per cycle. The
// superlinear depth exponent models the stronger periphery and retention
// margins deep near-threshold memories need.
func (p Params) CMLeak(cmWords int) float64 {
	if cmWords <= 0 {
		return 0
	}
	return p.LeakCM * math.Pow(float64(cmWords), p.LeakCMExp)
}

// AreaBreakdown decomposes a design's area (µm²).
type AreaBreakdown struct {
	Name    string
	PENonCM float64 // all tiles' non-CM logic (CPU: core)
	CM      float64 // all context memories (CPU: program memory + I$)
	LSU     float64
	Global  float64 // controller + interconnect
	DataMem float64
}

// Total returns the summed area.
func (a AreaBreakdown) Total() float64 {
	return a.PENonCM + a.CM + a.LSU + a.Global + a.DataMem
}

// CGRAArea returns the area of a CGRA configuration.
func (p Params) CGRAArea(g *arch.Grid) AreaBreakdown {
	a := AreaBreakdown{Name: g.Name, DataMem: p.DataMemArea}
	for _, t := range g.Tiles {
		a.PENonCM += p.PENonCM
		a.CM += p.CMAreaPerWord * float64(t.CMWords)
		if t.HasLSU {
			a.LSU += p.LSUArea
		}
	}
	a.Global = p.GlobalArea + p.NetArea
	return a
}

// CPUArea returns the baseline processor's area.
func (p Params) CPUArea() AreaBreakdown {
	return AreaBreakdown{
		Name:    "or1k CPU",
		PENonCM: p.CPUCoreArea,
		CM:      p.CPUIMemArea,
		DataMem: p.DataMemArea,
	}
}

// EnergyBreakdown decomposes one execution's energy (µJ).
type EnergyBreakdown struct {
	Config  float64
	Fetch   float64
	Compute float64 // ALU + moves + RF + CRF
	Memory  float64
	Leak    float64
}

// Total returns the summed energy in µJ.
func (e EnergyBreakdown) Total() float64 {
	return e.Config + e.Fetch + e.Compute + e.Memory + e.Leak
}

const pJtoUJ = 1e-6

// CGRAEnergy derives the energy of a simulated CGRA run.
func (p Params) CGRAEnergy(g *arch.Grid, r *sim.Result) EnergyBreakdown {
	return p.activityEnergy(g, r.Cycles, r.Tiles)
}

// ActivityEnergy derives energy from an observed-activity report — the
// same model as CGRAEnergy (both delegate to one implementation), consumed
// directly from the simulator's instrumentation so energy can be recomputed
// from recorded activity without the live Result.
func (p Params) ActivityEnergy(g *arch.Grid, a *sim.ActivityReport) EnergyBreakdown {
	return p.activityEnergy(g, a.Cycles, a.Tiles)
}

func (p Params) activityEnergy(g *arch.Grid, cycles int64, tiles []sim.TileCounters) EnergyBreakdown {
	var e EnergyBreakdown
	// One-time configuration initializes the physical context memories.
	e.Config = p.ConfigWord * float64(g.TotalCM()) * pJtoUJ
	var leakPerCycle float64
	// FetchEnergy and CMLeak (math.Pow) depend on the CM size alone,
	// and tiles of one size sit side by side in every configuration, so
	// they are evaluated again only where the size changes.
	words, fetch, leak := -1, 0.0, 0.0
	for i := range g.Tiles {
		t := &g.Tiles[i]
		tc := &tiles[i]
		if t.CMWords != words {
			words, fetch, leak = t.CMWords, p.FetchEnergy(t.CMWords), p.CMLeak(t.CMWords)
		}
		e.Fetch += fetch * float64(tc.Fetches) * pJtoUJ
		e.Compute += (p.ALUEnergy*float64(tc.OpCycles) +
			p.MoveEnergy*float64(tc.MoveCycles) +
			p.RFRead*float64(tc.RFReads) +
			p.RFWrite*float64(tc.RFWrites) +
			p.CRFRead*float64(tc.CRFReads)) * pJtoUJ
		e.Memory += p.MemAccess * float64(tc.MemReads+tc.MemWrites) * pJtoUJ
		leakPerCycle += leak + p.LeakTile
	}
	leakPerCycle += p.LeakGlobal
	e.Leak = leakPerCycle * float64(cycles) * pJtoUJ
	return e
}

// CPUEnergy derives the energy of a CPU run.
func (p Params) CPUEnergy(r *cpu.Result) EnergyBreakdown {
	var e EnergyBreakdown
	e.Compute = (p.CPUInstr*float64(r.Instrs) +
		p.CPUMul*float64(r.Muls) +
		p.CPUBranch*float64(r.Branches)) * pJtoUJ
	e.Memory = (p.CPULoad*float64(r.Loads) + p.CPUStore*float64(r.Stores)) * pJtoUJ
	e.Leak = p.CPULeak * float64(r.Cycles) * pJtoUJ
	return e
}
