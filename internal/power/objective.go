package power

import (
	"repro/internal/arch"
	"repro/internal/core"
)

// StaticMappingEnergy estimates a mapping's execution energy (µJ) without
// simulating it: one context fetch per occupied word, op/move energy from
// the static instruction mix, and leakage over the static cycle count
// (every block once). The estimate tracks the simulator-derived energy
// closely enough to rank mappings of the same kernel on the same grid —
// its only job in the seed portfolio — because mappings differ mainly in
// context words and moves, which this model prices exactly like
// CGRAEnergy does. The CLI tools pass it as the portfolio's
// PortfolioOptions.TieBreak.
func (p Params) StaticMappingEnergy(m *core.Mapping) float64 {
	e := p.ConfigWord * float64(m.Grid.TotalCM())
	leakPerCycle := p.LeakGlobal
	for t, words := range m.TileWords() {
		cm := m.Grid.Tile(arch.TileID(t)).CMWords
		e += p.FetchEnergy(cm) * float64(words)
		leakPerCycle += p.CMLeak(cm) + p.LeakTile
	}
	e += p.ALUEnergy*float64(m.TotalOps()) + p.MoveEnergy*float64(m.TotalMoves())
	e += leakPerCycle * float64(m.StaticCycles(nil))
	return e * pJtoUJ
}
