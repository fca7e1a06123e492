package asm

import (
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/kernels"
)

func assemble(t testing.TB, kernel string, flow core.Flow, cfg arch.ConfigName) *Program {
	t.Helper()
	k, err := kernels.ByName(kernel)
	if err != nil {
		t.Fatal(err)
	}
	m, err := core.Map(k.Build(), arch.MustGrid(cfg), core.DefaultOptions(flow))
	if err != nil {
		t.Fatal(err)
	}
	p, err := Assemble(m)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestAssembleCountsAndShape(t *testing.T) {
	p := assemble(t, "FIR", core.FlowCAB, arch.HET1)
	if len(p.Tiles) != 16 {
		t.Fatalf("tile count %d", len(p.Tiles))
	}
	if ok, tile := p.FitsMemory(); !ok {
		t.Fatalf("overflow on tile %d", tile+1)
	}
	total := 0
	for i := range p.Tiles {
		tc := &p.Tiles[i]
		if tc.Words() != len(tc.Binary) {
			t.Fatalf("tile %d words %d != binary %d", i+1, tc.Words(), len(tc.Binary))
		}
		total += tc.Words()
		// Segment cycle spans must equal the block lengths.
		for bb, seg := range tc.Segments {
			cycles := 0
			for _, in := range seg.Instrs {
				cycles += in.Cycles()
			}
			if cycles != p.BlockLens[bb] {
				t.Fatalf("tile %d block %d spans %d cycles, want %d", i+1, bb, cycles, p.BlockLens[bb])
			}
		}
	}
	if total != p.TotalWords() {
		t.Fatalf("TotalWords %d != %d", p.TotalWords(), total)
	}
	// Exactly the blocks with branches carry a branch tile.
	for bb, bt := range p.BranchTiles {
		if p.Graph.Blocks[bb].HasBranch() != (bt >= 0) {
			t.Fatalf("block %d branch tile %d inconsistent", bb, bt)
		}
	}
}

// TestBinaryRoundTrip decodes every tile's binary image back and compares
// it with the assembled instruction stream — the context-memory encoding
// is lossless.
func TestBinaryRoundTrip(t *testing.T) {
	p := assemble(t, "Convolution", core.FlowCAB, arch.HOM32)
	for i := range p.Tiles {
		tc := &p.Tiles[i]
		var want []isa.Instr
		for _, seg := range tc.Segments {
			want = append(want, seg.Instrs...)
		}
		if len(want) != len(tc.Binary) {
			t.Fatalf("tile %d: %d instrs vs %d words", i+1, len(want), len(tc.Binary))
		}
		for j, w := range tc.Binary {
			got, err := isa.Decode(w, tc.CRF.Values())
			if err != nil {
				t.Fatalf("tile %d word %d: %v", i+1, j, err)
			}
			if got != want[j] {
				t.Fatalf("tile %d word %d: decoded %v, want %v", i+1, j, got, want[j])
			}
		}
		if tc.CRF.Len() > isa.MaxCRF {
			t.Fatalf("tile %d CRF overflow: %d", i+1, tc.CRF.Len())
		}
	}
}

// TestBinaryRoundTripAllConfigs repeats the lossless-encoding check on
// every context-memory configuration: the heterogeneous layouts change
// tile placement (and so the instruction streams), and each stream must
// still decode bit-identically against its tile's CRF.
func TestBinaryRoundTripAllConfigs(t *testing.T) {
	kinds := map[isa.Kind]int{}
	for _, cfg := range arch.ConfigNames() {
		p := assemble(t, "FIR", core.FlowCAB, cfg)
		for i := range p.Tiles {
			tc := &p.Tiles[i]
			var want []isa.Instr
			for _, seg := range tc.Segments {
				want = append(want, seg.Instrs...)
			}
			for j, w := range tc.Binary {
				got, err := isa.Decode(w, tc.CRF.Values())
				if err != nil {
					t.Fatalf("%s tile %d word %d: %v", cfg, i+1, j, err)
				}
				if got != want[j] {
					t.Fatalf("%s tile %d word %d: decoded %v, want %v", cfg, i+1, j, got, want[j])
				}
				kinds[got.Kind]++
			}
		}
	}
	for _, k := range []isa.Kind{isa.KOp, isa.KMove, isa.KPnop} {
		if kinds[k] == 0 {
			t.Errorf("no %v words across any config; round trip untested for that kind", k)
		}
	}
}

func TestListing(t *testing.T) {
	p := assemble(t, "DCFilter", core.FlowBasic, arch.HOM64)
	l := Listing(p)
	for _, want := range []string{"program dcfilter", "tile 1", ".loop:", "pnop"} {
		if !strings.Contains(l, want) {
			t.Errorf("listing missing %q", want)
		}
	}
}

func TestAssembleRejectsBrokenMapping(t *testing.T) {
	k, _ := kernels.ByName("FIR")
	m, err := core.Map(k.Build(), arch.MustGrid(arch.HOM64), core.DefaultOptions(core.FlowBasic))
	if err != nil {
		t.Fatal(err)
	}
	m.Blocks[1].Ops[0]++ // corrupt the word accounting
	if _, err := Assemble(m); err == nil {
		t.Fatal("corrupted mapping should fail to assemble")
	}
}

func TestPnopCompression(t *testing.T) {
	// Every maximal run of empty slots must be one pnop word.
	p := assemble(t, "FIR", core.FlowBasic, arch.HOM64)
	for i := range p.Tiles {
		for _, seg := range p.Tiles[i].Segments {
			for j := 1; j < len(seg.Instrs); j++ {
				if seg.Instrs[j-1].Kind == isa.KPnop && seg.Instrs[j].Kind == isa.KPnop {
					t.Fatalf("tile %d: adjacent pnops not merged", i+1)
				}
			}
		}
	}
}
