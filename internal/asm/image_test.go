package asm

import (
	"bytes"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/cdfg"
	"repro/internal/core"
	"repro/internal/kernels"
)

func TestImageRoundTrip(t *testing.T) {
	p := assemble(t, "FFT", core.FlowCAB, arch.HET1)
	data, err := SaveImage(p)
	if err != nil {
		t.Fatal(err)
	}
	img, err := LoadImage(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(img.Tiles) != len(p.Tiles) || len(img.BlockLens) != len(p.BlockLens) {
		t.Fatal("shape mismatch")
	}
	for b, l := range p.BlockLens {
		if img.BlockLens[b] != l {
			t.Fatalf("block %d len %d != %d", b, img.BlockLens[b], l)
		}
		if img.BranchTiles[b] != p.BranchTiles[b] {
			t.Fatalf("block %d branch tile mismatch", b)
		}
	}
	for i := range p.Tiles {
		want := &p.Tiles[i]
		got := &img.Tiles[i]
		if len(got.Binary) != want.Words() {
			t.Fatalf("tile %d words %d != %d", i+1, len(got.Binary), want.Words())
		}
		idx := 0
		for b, seg := range want.Segments {
			for j, in := range seg.Instrs {
				if got.Segments[b][j] != in {
					t.Fatalf("tile %d block %d instr %d: %v != %v", i+1, b, j, got.Segments[b][j], in)
				}
				idx++
			}
		}
	}
}

func TestLoadImageRejectsGarbage(t *testing.T) {
	if _, err := LoadImage([]byte("nope")); err == nil {
		t.Error("bad magic should fail")
	}
	p := assemble(t, "DCFilter", core.FlowBasic, arch.HOM64)
	data, err := SaveImage(p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := LoadImage(data[:len(data)-3]); err == nil {
		t.Error("truncated image should fail")
	}
	if _, err := LoadImage(append(data, 0)); err == nil {
		t.Error("trailing bytes should fail")
	}
	corrupt := append([]byte(nil), data...)
	corrupt[4] = 99 // version
	if _, err := LoadImage(corrupt); err == nil {
		t.Error("bad version should fail")
	}
}

// TestImageBytesExact pins the decoder's edges on every suite kernel's
// cab/HET1 image: each proper prefix and the image with one byte
// appended are refused, and the image survives LoadImage,
// ProgramFromImage and SaveImage byte for byte.
func TestImageBytesExact(t *testing.T) {
	for _, name := range kernels.Names() {
		p := assemble(t, name, core.FlowCAB, arch.HET1)
		data, err := SaveImage(p)
		if err != nil {
			t.Fatal(err)
		}
		for n := range data {
			if _, err := LoadImage(data[:n]); err == nil {
				t.Fatalf("%s: %d-byte prefix of a %d-byte image loaded", name, n, len(data))
			}
		}
		if _, err := LoadImage(append(data[:len(data):len(data)], 0)); err == nil {
			t.Fatalf("%s: image with a trailing byte loaded", name)
		}
		img, err := LoadImage(data)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		p2, err := ProgramFromImage(img, p.Graph, p.Grid)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		again, err := SaveImage(p2)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !bytes.Equal(again, data) {
			t.Fatalf("%s: image changed across a load/save round trip", name)
		}
	}
}

// TestLoadImageRejectsRepeatedConstant: SaveImage writes each constant of
// a tile's CRF once, so an image whose CRF repeats one is refused. Loaded,
// its words would decode against indices that save back as other bytes.
func TestLoadImageRejectsRepeatedConstant(t *testing.T) {
	p := assemble(t, "FFT", core.FlowCAB, arch.HET1)
	data, err := SaveImage(p)
	if err != nil {
		t.Fatal(err)
	}
	// Tile t's CRF length word sits after the header, the block tables
	// and every earlier tile's CRF and segments.
	off := len(imageMagic) + 12 + 8*len(p.BlockLens)
	for i := range p.Tiles {
		tc := &p.Tiles[i]
		if tc.CRF.Len() >= 2 {
			corrupt := append([]byte(nil), data...)
			copy(corrupt[off+8:off+12], corrupt[off+4:off+8]) // constant 1 := constant 0
			if _, err := LoadImage(corrupt); err == nil || !strings.Contains(err.Error(), "repeats constant") {
				t.Fatalf("tile %d CRF with a repeated constant: err = %v", i+1, err)
			}
			return
		}
		off += 4 + 4*tc.CRF.Len() + 4*len(tc.Segments) + 8*tc.Words()
	}
	t.Fatal("no tile holds two constants")
}

func TestProgramFromImage(t *testing.T) {
	k, _ := kernels.ByName("Convolution")
	g := k.Build()
	grid := arch.MustGrid(arch.HET2)
	m, err := core.Map(g, grid, core.DefaultOptions(core.FlowCAB))
	if err != nil {
		t.Fatal(err)
	}
	p, err := Assemble(m)
	if err != nil {
		t.Fatal(err)
	}
	data, err := SaveImage(p)
	if err != nil {
		t.Fatal(err)
	}
	img, err := LoadImage(data)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := ProgramFromImage(img, g, grid)
	if err != nil {
		t.Fatal(err)
	}
	if p2.TotalWords() != p.TotalWords() {
		t.Fatalf("rebuilt program words %d != %d", p2.TotalWords(), p.TotalWords())
	}
	// Mismatched shapes are rejected.
	if _, err := ProgramFromImage(img, g, arch.MustGrid(arch.HOM64)); err != nil {
		t.Fatal("same tile count should load") // HOM64 also has 16 tiles
	}
	other, _ := kernels.ByName("FIR")
	if _, err := ProgramFromImage(img, other.Build(), grid); err == nil {
		t.Error("block-count mismatch should fail")
	}
}

// TestLoadImageRejectsOversizedHeader pins that a header promising
// tables larger than the image is rejected before they are allocated:
// a 16-byte image claiming 4096 tiles and 1M blocks.
func TestLoadImageRejectsOversizedHeader(t *testing.T) {
	data := append([]byte(imageMagic), 1, 0, 0, 0, 0, 16, 0, 0, 0, 0, 16, 0)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := LoadImage(data)
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "remain") {
		t.Fatalf("oversized header: err = %v", err)
	}
	if n := after.TotalAlloc - before.TotalAlloc; n > 1<<16 {
		t.Fatalf("rejecting the header allocated %d bytes", n)
	}
}

// imageFixture is FuzzLoadImage's reference: a real kernel's image and
// the graph and grid it was assembled for.
func imageFixture(t testing.TB) (data []byte, g *cdfg.Graph, grid *arch.Grid) {
	p := assemble(t, "DCFilter", core.FlowBasic, arch.HOM64)
	data, err := SaveImage(p)
	if err != nil {
		t.Fatal(err)
	}
	return data, p.Graph, p.Grid
}

// FuzzLoadImage feeds arbitrary bytes through the mapping cache's disk
// decode path, LoadImage then ProgramFromImage. Either step may refuse
// the bytes with an error; neither may panic, and a program they accept
// must have the graph's and grid's shape and survive a save/load round
// trip unchanged. The checked-in corpus (testdata/fuzz/FuzzLoadImage)
// holds the fixture's image, truncations of it, an oversized header
// and a branch on a tile off the grid.
func FuzzLoadImage(f *testing.F) {
	data, g, grid := imageFixture(f)
	f.Add(data)
	f.Fuzz(func(t *testing.T, data []byte) {
		img, err := LoadImage(data)
		if err != nil {
			return
		}
		p, err := ProgramFromImage(img, g, grid)
		if err != nil {
			return
		}
		if len(p.Tiles) != grid.NumTiles() || len(p.BlockLens) != len(g.Blocks) || len(p.BranchTiles) != len(g.Blocks) {
			t.Fatalf("accepted program has %d tiles, %d blocks", len(p.Tiles), len(p.BlockLens))
		}
		for b, bt := range p.BranchTiles {
			if bt < -1 || int(bt) >= grid.NumTiles() {
				t.Fatalf("accepted block %d branches on tile %d", b, bt)
			}
		}
		for i := range p.Tiles {
			tc := &p.Tiles[i]
			words := 0
			for _, seg := range tc.Segments {
				words += len(seg.Instrs)
			}
			if len(tc.Segments) != len(g.Blocks) || words != len(tc.Binary) {
				t.Fatalf("tile %d: %d segments of %d words, %d binary words", i+1, len(tc.Segments), words, len(tc.Binary))
			}
		}
		again, err := SaveImage(p)
		if err != nil {
			t.Fatalf("accepted program does not save: %v", err)
		}
		img2, err := LoadImage(again)
		if err != nil {
			t.Fatalf("saved program does not load: %v", err)
		}
		for i := range img.Tiles {
			a, b := img.Tiles[i].Segments, img2.Tiles[i].Segments
			for s := range a {
				if !slices.Equal(a[s], b[s]) {
					t.Fatalf("tile %d block %d changed across a save/load round trip", i+1, s)
				}
			}
		}
	})
}
