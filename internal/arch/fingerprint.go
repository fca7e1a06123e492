package arch

import (
	"fmt"
	"strconv"
)

// Fingerprint returns a deterministic rendering of every structural grid
// property that can influence a mapping: geometry, register files, memory
// system, and the per-tile LSU/context-memory layout. The Name is
// deliberately excluded — two configurations with identical structure must
// fingerprint identically so content-addressed caches (internal/mapcache)
// key on what the mapper actually sees, not on a label.
func (g *Grid) Fingerprint() string {
	b := fmt.Appendf(nil, "grid:%dx%d;rrf=%d;ports=%d;banks=%d;tiles=",
		g.Rows, g.Cols, g.RRFSize, g.MemPorts, g.MemBanks)
	for i, t := range g.Tiles {
		if i > 0 {
			b = append(b, ',')
		}
		lsu := byte('0')
		if t.HasLSU {
			lsu = '1'
		}
		b = strconv.AppendInt(append(b, lsu, ':'), int64(t.CMWords), 10)
	}
	return string(b)
}
