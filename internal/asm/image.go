package asm

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"repro/internal/arch"
	"repro/internal/cdfg"
	"repro/internal/isa"
)

// Binary image format — the artifact the global controller would DMA into
// the array before execution. All integers are little-endian.
//
//	magic   "CGRA"                                  4 bytes
//	version u32                                     (currently 1)
//	tiles   u32, blocks u32
//	blockLens   [blocks]u32
//	branchTiles [blocks]i32
//	per tile:
//	  crfLen u32, crf [crfLen]i32
//	  segments [blocks]{words u32, context [words]u64}
//
// The image intentionally excludes the CDFG: it is exactly what the
// hardware consumes. Loading an image therefore returns per-tile decoded
// instruction streams, not a full Program.
const (
	imageMagic   = "CGRA"
	imageVersion = 1
)

// Image is a loaded context-memory image.
type Image struct {
	BlockLens   []int
	BranchTiles []arch.TileID
	// Tiles[t].Segments[b] is tile t's decoded context for block b.
	Tiles []ImageTile
}

// ImageTile is one tile's loaded state.
type ImageTile struct {
	CRF      *isa.CRF
	Segments [][]isa.Instr
	Binary   []uint64
}

// SaveImage serializes the program's context memories.
func SaveImage(p *Program) ([]byte, error) {
	var buf bytes.Buffer
	buf.WriteString(imageMagic)
	w32 := func(v uint32) { _ = binary.Write(&buf, binary.LittleEndian, v) }
	w32(imageVersion)
	w32(uint32(len(p.Tiles)))
	w32(uint32(len(p.BlockLens)))
	for _, l := range p.BlockLens {
		w32(uint32(l))
	}
	for _, bt := range p.BranchTiles {
		_ = binary.Write(&buf, binary.LittleEndian, int32(bt))
	}
	for i := range p.Tiles {
		tc := &p.Tiles[i]
		vals := tc.CRF.Values()
		w32(uint32(len(vals)))
		for _, v := range vals {
			_ = binary.Write(&buf, binary.LittleEndian, v)
		}
		for _, seg := range tc.Segments {
			w32(uint32(len(seg.Instrs)))
			for _, in := range seg.Instrs {
				word, err := encodeAgainst(in, tc.CRF)
				if err != nil {
					return nil, err
				}
				_ = binary.Write(&buf, binary.LittleEndian, word)
			}
		}
	}
	return buf.Bytes(), nil
}

// encodeAgainst encodes without growing the CRF (all constants were
// interned during assembly; a miss is a bug).
func encodeAgainst(in isa.Instr, crf *isa.CRF) (uint64, error) {
	before := crf.Len()
	w, err := isa.Encode(in, crf)
	if err != nil {
		return 0, err
	}
	if crf.Len() != before {
		return 0, fmt.Errorf("asm: instruction %v referenced a constant missing from the CRF", in)
	}
	return w, nil
}

// LoadImage parses and decodes a saved image.
func LoadImage(data []byte) (*Image, error) {
	r := bytes.NewReader(data)
	magic := make([]byte, 4)
	if _, err := r.Read(magic); err != nil || string(magic) != imageMagic {
		return nil, fmt.Errorf("asm: bad image magic")
	}
	var version, tiles, blocks uint32
	rd := func(v any) error { return binary.Read(r, binary.LittleEndian, v) }
	if err := rd(&version); err != nil || version != imageVersion {
		return nil, fmt.Errorf("asm: unsupported image version")
	}
	if err := rd(&tiles); err != nil {
		return nil, err
	}
	if err := rd(&blocks); err != nil {
		return nil, err
	}
	if tiles > 4096 || blocks > 1<<20 {
		return nil, fmt.Errorf("asm: implausible image header (%d tiles, %d blocks)", tiles, blocks)
	}
	// Each block takes 8 bytes of tables and each tile at least a CRF
	// length and one word count per block: a header promising more than
	// the image holds is rejected before anything is sized by it.
	if need := 8*uint64(blocks) + uint64(tiles)*(4+4*uint64(blocks)); need > uint64(r.Len()) {
		return nil, fmt.Errorf("asm: image header (%d tiles, %d blocks) needs %d more bytes, %d remain", tiles, blocks, need, r.Len())
	}
	img := &Image{
		BlockLens:   make([]int, blocks),
		BranchTiles: make([]arch.TileID, blocks),
		Tiles:       make([]ImageTile, tiles),
	}
	for i := range img.BlockLens {
		var l uint32
		if err := rd(&l); err != nil {
			return nil, err
		}
		img.BlockLens[i] = int(l)
	}
	for i := range img.BranchTiles {
		var bt int32
		if err := rd(&bt); err != nil {
			return nil, err
		}
		img.BranchTiles[i] = arch.TileID(bt)
	}
	for t := range img.Tiles {
		it := &img.Tiles[t]
		var crfLen uint32
		if err := rd(&crfLen); err != nil {
			return nil, err
		}
		if crfLen > isa.MaxCRF {
			return nil, fmt.Errorf("asm: tile %d CRF of %d entries exceeds %d", t+1, crfLen, isa.MaxCRF)
		}
		it.CRF = isa.NewCRF()
		for j := uint32(0); j < crfLen; j++ {
			var v int32
			if err := rd(&v); err != nil {
				return nil, err
			}
			if _, err := it.CRF.Intern(v); err != nil {
				return nil, err
			}
		}
		it.Segments = make([][]isa.Instr, blocks)
		for b := uint32(0); b < blocks; b++ {
			var words uint32
			if err := rd(&words); err != nil {
				return nil, err
			}
			for j := uint32(0); j < words; j++ {
				var w uint64
				if err := rd(&w); err != nil {
					return nil, err
				}
				in, err := isa.Decode(w, it.CRF)
				if err != nil {
					return nil, fmt.Errorf("asm: tile %d block %d word %d: %w", t+1, b, j, err)
				}
				it.Segments[b] = append(it.Segments[b], in)
				it.Binary = append(it.Binary, w)
			}
		}
	}
	if r.Len() != 0 {
		return nil, fmt.Errorf("asm: %d trailing bytes in image", r.Len())
	}
	return img, nil
}

// ProgramFromImage rebuilds an executable Program from a loaded image plus
// the graph and grid it was assembled for — the path a hardware loader
// takes (context memories are the only program state). The graph is only
// used for control flow (block successors); all instruction semantics come
// from the decoded words.
func ProgramFromImage(img *Image, g *cdfg.Graph, grid *arch.Grid) (*Program, error) {
	if len(img.Tiles) != grid.NumTiles() {
		return nil, fmt.Errorf("asm: image has %d tiles, grid has %d", len(img.Tiles), grid.NumTiles())
	}
	if len(img.BlockLens) != len(g.Blocks) {
		return nil, fmt.Errorf("asm: image has %d blocks, graph has %d", len(img.BlockLens), len(g.Blocks))
	}
	for b, bt := range img.BranchTiles {
		if bt < -1 || int(bt) >= grid.NumTiles() { // -1: the block has no branch
			return nil, fmt.Errorf("asm: image block %d branches on tile %d, grid has %d", b, bt, grid.NumTiles())
		}
	}
	p := &Program{
		Graph:       g,
		Grid:        grid,
		Tiles:       make([]TileContext, len(img.Tiles)),
		BlockLens:   img.BlockLens,
		BranchTiles: img.BranchTiles,
	}
	for t := range img.Tiles {
		it := &img.Tiles[t]
		tc := &p.Tiles[t]
		tc.Tile = arch.TileID(t)
		tc.CRF = it.CRF
		tc.Binary = it.Binary
		tc.Segments = make([]Segment, len(it.Segments))
		for b, instrs := range it.Segments {
			tc.Segments[b] = Segment{BB: cdfg.BBID(b), Instrs: instrs, Cycles: img.BlockLens[b]}
		}
	}
	return p, nil
}
