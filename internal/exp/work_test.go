package exp

import (
	"sync"
	"testing"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/kernels"
)

// paperRun maps the paper's 28 Fig 8 / Table II cells — every kernel
// under basic/HOM64 and under cab/HOM32, HET1 and HET2 — once for the
// search-work tests below.
var paperRun struct {
	once       sync.Once
	basic, cab []*Cell
}

func paperCells() (basic, cab []*Cell) {
	paperRun.once.Do(func() {
		r := NewRunner()
		var jobs []func(int)
		for _, name := range kernels.Names() {
			jobs = append(jobs, func(tid int) { r.run(tid, name, core.FlowBasic, arch.HOM64) })
			for _, cfg := range []arch.ConfigName{arch.HOM32, arch.HET1, arch.HET2} {
				jobs = append(jobs, func(tid int) { r.run(tid, name, core.FlowCAB, cfg) })
			}
		}
		r.prefetch(jobs)
		for _, name := range kernels.Names() {
			paperRun.basic = append(paperRun.basic, r.Run(name, core.FlowBasic, arch.HOM64))
			for _, cfg := range []arch.ConfigName{arch.HOM32, arch.HET1, arch.HET2} {
				paperRun.cab = append(paperRun.cab, r.Run(name, core.FlowCAB, cfg))
			}
		}
	})
	return paperRun.basic, paperRun.cab
}

// maxPlanned caps the route plans the paper cells may cost. The mapper
// planned 3,398,826 slots over them before the reach screen and the
// cycle-aware bound (DESIGN.md §10), and 687,274 with them. A change that
// weakens either fails here, deterministically, instead of hiding in
// benchmark noise.
const maxPlanned = 1_000_000

// TestPaperCellsPlannedWork guards the mapper's route-planning work:
// Stats.Planned summed over the mapped paper cells.
func TestPaperCellsPlannedWork(t *testing.T) {
	basic, cab := paperCells()
	planned, partials, mapped := 0, 0, 0
	for _, c := range append(append([]*Cell(nil), basic...), cab...) {
		if c.OK {
			planned += c.MapStats.Planned
			partials += c.MapStats.Partials
			mapped++
		}
	}
	if mapped == 0 || planned > maxPlanned {
		t.Fatalf("%d mapped paper cells route-planned %d slots, want at most %d", mapped, planned, maxPlanned)
	}
	t.Logf("%d mapped paper cells route-planned %d slots for %d partials", mapped, planned, partials)
}

// TestFig9CABSearchesMore pins Fig 9's claim on search work rather than
// wall clock: the constraint-aware flow realizes more partial mappings
// per mapped cell than the basic flow (its blacklisting narrows the
// candidates and cornered blocks retry with wider beams).
func TestFig9CABSearchesMore(t *testing.T) {
	basic, cab := paperCells()
	mean := func(cells []*Cell) float64 {
		sum, n := 0, 0
		for _, c := range cells {
			if c.OK {
				sum += c.MapStats.Partials
				n++
			}
		}
		if n == 0 {
			t.Fatal("no mapped cell")
		}
		return float64(sum) / float64(n)
	}
	b, c := mean(basic), mean(cab)
	if c <= b {
		t.Fatalf("mean partials per mapped cell: cab %.0f, basic %.0f; Fig 9 needs cab above basic", c, b)
	}
	t.Logf("mean partials per mapped cell: cab %.0f, basic %.0f (%.2fx)", c, b, c/b)
}
