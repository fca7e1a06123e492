package asm

import (
	"encoding/binary"
	"fmt"
	"io"
	"slices"

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
//	  crfLen u32, crf [crfLen]i32 (no value repeated)
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
	size := len(imageMagic) + 12 + 8*len(p.BlockLens)
	for i := range p.Tiles {
		size += 4 + 4*p.Tiles[i].CRF.Len() + 4*len(p.BlockLens) + 8*p.Tiles[i].Words()
	}
	buf := append(make([]byte, 0, size), imageMagic...)
	buf = binary.LittleEndian.AppendUint32(buf, imageVersion)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(p.Tiles)))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(p.BlockLens)))
	for _, l := range p.BlockLens {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(l))
	}
	for _, bt := range p.BranchTiles {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(int32(bt)))
	}
	for i := range p.Tiles {
		tc := &p.Tiles[i]
		vals := tc.CRF.Values()
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(vals)))
		for _, v := range vals {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(v))
		}
		for _, seg := range tc.Segments {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(len(seg.Instrs)))
			for _, in := range seg.Instrs {
				word, err := encodeAgainst(in, tc.CRF)
				if err != nil {
					return nil, err
				}
				buf = binary.LittleEndian.AppendUint64(buf, word)
			}
		}
	}
	return buf, nil
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

// LoadImage parses and decodes a saved image. It reads the fields
// straight off the byte slice and checks every count against the bytes
// that remain before using it, so a truncated or lying image is an
// error, never a panic, and allocation follows the bytes given rather
// than the counts claimed.
func LoadImage(data []byte) (*Image, error) {
	if len(data) < len(imageMagic) || string(data[:len(imageMagic)]) != imageMagic {
		return nil, fmt.Errorf("asm: bad image magic")
	}
	r := data[len(imageMagic):]
	u32 := func() (uint32, error) {
		if len(r) < 4 {
			return 0, fmt.Errorf("asm: image truncated: %w", io.ErrUnexpectedEOF)
		}
		v := binary.LittleEndian.Uint32(r)
		r = r[4:]
		return v, nil
	}
	if version, err := u32(); err != nil || version != imageVersion {
		return nil, fmt.Errorf("asm: unsupported image version")
	}
	tiles, err := u32()
	if err != nil {
		return nil, err
	}
	blocks, err := u32()
	if err != nil {
		return nil, err
	}
	if tiles > 4096 || blocks > 1<<20 {
		return nil, fmt.Errorf("asm: implausible image header (%d tiles, %d blocks)", tiles, blocks)
	}
	// Each block takes 8 bytes of tables and each tile at least a CRF
	// length and one word count per block: a header promising more than
	// the image holds is rejected before anything is sized by it.
	if need := 8*uint64(blocks) + uint64(tiles)*(4+4*uint64(blocks)); need > uint64(len(r)) {
		return nil, fmt.Errorf("asm: image header (%d tiles, %d blocks) needs %d more bytes, %d remain", tiles, blocks, need, len(r))
	}
	img := &Image{
		BlockLens:   make([]int, blocks),
		BranchTiles: make([]arch.TileID, blocks),
		Tiles:       make([]ImageTile, tiles),
	}
	for i := range img.BlockLens {
		l, _ := u32() // the header check covered both tables
		img.BlockLens[i] = int(l)
	}
	for i := range img.BranchTiles {
		bt, _ := u32()
		img.BranchTiles[i] = arch.TileID(int32(bt))
	}
	// Every word takes 8 of the bytes that remain and every constant 4, so
	// one array of each kind sized from them holds the whole image without
	// regrowing; each tile and segment keeps a capped sub-slice of it.
	instrs, bin := make([]isa.Instr, 0, len(r)/8), make([]uint64, 0, len(r)/8)
	consts := make([]int32, 0, min(len(r)/4, int(tiles)*isa.MaxCRF))
	crfs := make([]isa.CRF, tiles)
	for t := range img.Tiles {
		it := &img.Tiles[t]
		crfLen, err := u32()
		if err != nil {
			return nil, err
		}
		if crfLen > isa.MaxCRF {
			return nil, fmt.Errorf("asm: tile %d CRF of %d entries exceeds %d", t+1, crfLen, isa.MaxCRF)
		}
		crfStart := len(consts)
		for j := uint32(0); j < crfLen; j++ {
			v, err := u32()
			if err != nil {
				return nil, err
			}
			// SaveImage writes each constant once; an image that repeats
			// one would decode against indices it could not save back.
			if slices.Contains(consts[crfStart:], int32(v)) {
				return nil, fmt.Errorf("asm: tile %d CRF repeats constant %d", t+1, int32(v))
			}
			consts = append(consts, int32(v))
		}
		vals := consts[crfStart:len(consts):len(consts)]
		crfs[t] = isa.CRFOf(vals)
		it.CRF = &crfs[t]
		it.Segments = make([][]isa.Instr, blocks)
		tileStart := len(bin)
		for b := range it.Segments {
			words, err := u32()
			if err != nil {
				return nil, err
			}
			if uint64(words)*8 > uint64(len(r)) {
				return nil, fmt.Errorf("asm: tile %d block %d holds %d words, %d bytes remain", t+1, b, words, len(r))
			}
			if words == 0 {
				continue
			}
			segStart := len(instrs)
			for j := 0; j < int(words); j++ {
				w := binary.LittleEndian.Uint64(r[8*j:])
				in, err := isa.Decode(w, vals)
				if err != nil {
					return nil, fmt.Errorf("asm: tile %d block %d word %d: %w", t+1, b, j, err)
				}
				instrs, bin = append(instrs, in), append(bin, w)
			}
			it.Segments[b] = instrs[segStart:len(instrs):len(instrs)]
			r = r[8*words:]
		}
		if len(bin) > tileStart {
			it.Binary = bin[tileStart:len(bin):len(bin)]
		}
	}
	if len(r) != 0 {
		return nil, fmt.Errorf("asm: %d trailing bytes in image", len(r))
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
