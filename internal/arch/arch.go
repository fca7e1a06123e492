// Package arch models the target CGRA of the paper: a 4×4 grid of tiles
// (processing elements) interconnected by a 2D-mesh torus. Each tile holds
// an ALU, a regular register file (RRF), a constant register file (CRF)
// and a context memory (CM) of a per-tile size; the tiles of the first two
// rows additionally contain a load/store unit (LSU) reaching the banked
// data memory through a logarithmic interconnect.
//
// Tiles are numbered 1..R*C row-major to match the paper's figures; the
// package also exposes the dense 0-based index used internally.
package arch

import (
	"fmt"
	"sort"
)

// TileID is a 0-based dense tile index. The paper's tile "k" is TileID(k-1).
type TileID int

// Tile describes one processing element.
type Tile struct {
	ID      TileID
	Row     int
	Col     int
	HasLSU  bool // can execute load/store operations
	CMWords int  // context-memory capacity in instruction words
}

// Grid is a CGRA instance: a rectangular torus of tiles plus the shared
// data-memory parameters.
type Grid struct {
	Name string
	Rows int
	Cols int

	Tiles []Tile

	// RRFSize is the number of regular-register-file entries per tile
	// available to the mapper for holding values (the paper's 32×8-bit RRF
	// holds 8 32-bit values in our word-oriented model).
	RRFSize int

	// nbrs is the precomputed neighbor table (see buildNeighborTable).
	nbrs [][4]TileID

	// MemPorts is the number of simultaneous data-memory accesses the
	// logarithmic interconnect serves per cycle; excess accesses stall the
	// whole array for one cycle per extra access.
	MemPorts int

	// MemBanks is the number of data-memory banks (word-interleaved).
	// Accesses mapping to the same bank in the same cycle conflict even
	// when ports remain.
	MemBanks int
}

// NumTiles returns the tile count.
func (g *Grid) NumTiles() int { return len(g.Tiles) }

// Tile returns the tile with the given id.
func (g *Grid) Tile(id TileID) *Tile { return &g.Tiles[id] }

// At returns the tile at (row, col).
func (g *Grid) At(row, col int) *Tile { return &g.Tiles[row*g.Cols+col] }

// LSUTiles returns the ids of tiles with a load/store unit, ascending.
func (g *Grid) LSUTiles() []TileID {
	var ids []TileID
	for _, t := range g.Tiles {
		if t.HasLSU {
			ids = append(ids, t.ID)
		}
	}
	return ids
}

// TotalCM returns the total context-memory words over all tiles.
func (g *Grid) TotalCM() int {
	n := 0
	for _, t := range g.Tiles {
		n += t.CMWords
	}
	return n
}

// Neighbors returns the four torus neighbors of a tile in deterministic
// order (north, south, west, east). On a torus every tile has exactly four
// neighbors; on 4×4 they are all distinct from the tile itself.
func (g *Grid) Neighbors(id TileID) []TileID {
	if g.nbrs != nil {
		return g.nbrs[id][:]
	}
	t := g.Tiles[id]
	up := (t.Row - 1 + g.Rows) % g.Rows
	dn := (t.Row + 1) % g.Rows
	lf := (t.Col - 1 + g.Cols) % g.Cols
	rt := (t.Col + 1) % g.Cols
	return []TileID{
		g.At(up, t.Col).ID,
		g.At(dn, t.Col).ID,
		g.At(t.Row, lf).ID,
		g.At(t.Row, rt).ID,
	}
}

// buildNeighborTable precomputes the per-tile neighbor lists so Neighbors
// is allocation-free — it sits on the routing search's innermost loop.
func (g *Grid) buildNeighborTable() {
	g.nbrs = nil // fall back to the computed form while (re)building
	nbrs := make([][4]TileID, len(g.Tiles))
	for id := range g.Tiles {
		copy(nbrs[id][:], g.Neighbors(TileID(id)))
	}
	g.nbrs = nbrs
}

// Adjacent reports whether a and b are torus neighbors.
func (g *Grid) Adjacent(a, b TileID) bool {
	for _, n := range g.Neighbors(a) {
		if n == b {
			return true
		}
	}
	return false
}

// Distance returns the torus hop distance between two tiles.
func (g *Grid) Distance(a, b TileID) int {
	ta, tb := g.Tiles[a], g.Tiles[b]
	dr := torusDelta(ta.Row, tb.Row, g.Rows)
	dc := torusDelta(ta.Col, tb.Col, g.Cols)
	return dr + dc
}

func torusDelta(a, b, n int) int {
	d := a - b
	if d < 0 {
		d = -d
	}
	if w := n - d; w < d {
		return w
	}
	return d
}

// Path returns a deterministic shortest torus path from a to b, excluding a
// and including b (empty when a == b). Routing goes row-first then
// column, always stepping in the shorter wrap direction.
func (g *Grid) Path(a, b TileID) []TileID {
	var path []TileID
	cur := g.Tiles[a]
	row, col := cur.Row, cur.Col
	tb := g.Tiles[b]
	for row != tb.Row {
		row = stepToward(row, tb.Row, g.Rows)
		path = append(path, g.At(row, col).ID)
	}
	for col != tb.Col {
		col = stepToward(col, tb.Col, g.Cols)
		path = append(path, g.At(row, col).ID)
	}
	return path
}

func stepToward(a, b, n int) int {
	if a == b {
		return a
	}
	fwd := (b - a + n) % n // steps going +1
	bwd := (a - b + n) % n // steps going -1
	if fwd <= bwd {
		return (a + 1) % n
	}
	return (a - 1 + n) % n
}

// TilesByDistance returns all tile ids sorted by torus distance from the
// given tile (ties by id), starting with the tile itself.
func (g *Grid) TilesByDistance(from TileID) []TileID {
	ids := make([]TileID, g.NumTiles())
	for i := range ids {
		ids[i] = TileID(i)
	}
	sort.Slice(ids, func(i, j int) bool {
		di, dj := g.Distance(from, ids[i]), g.Distance(from, ids[j])
		if di != dj {
			return di < dj
		}
		return ids[i] < ids[j]
	})
	return ids
}

// Validate checks internal consistency of the grid description.
func (g *Grid) Validate() error {
	if g.Rows <= 0 || g.Cols <= 0 {
		return fmt.Errorf("arch: grid %q has non-positive shape %dx%d", g.Name, g.Rows, g.Cols)
	}
	if len(g.Tiles) != g.Rows*g.Cols {
		return fmt.Errorf("arch: grid %q has %d tiles, want %d", g.Name, len(g.Tiles), g.Rows*g.Cols)
	}
	for i, t := range g.Tiles {
		if t.ID != TileID(i) {
			return fmt.Errorf("arch: tile at index %d has id %d", i, t.ID)
		}
		if t.Row != i/g.Cols || t.Col != i%g.Cols {
			return fmt.Errorf("arch: tile %d has position (%d,%d), want (%d,%d)",
				i, t.Row, t.Col, i/g.Cols, i%g.Cols)
		}
		if t.CMWords <= 0 {
			return fmt.Errorf("arch: tile %d has context memory of %d words", i, t.CMWords)
		}
	}
	if g.RRFSize <= 0 {
		return fmt.Errorf("arch: grid %q has RRF size %d", g.Name, g.RRFSize)
	}
	if g.MemPorts <= 0 || g.MemBanks <= 0 {
		return fmt.Errorf("arch: grid %q needs positive memory ports/banks", g.Name)
	}
	if len(g.LSUTiles()) == 0 {
		return fmt.Errorf("arch: grid %q has no load/store tile", g.Name)
	}
	return nil
}
