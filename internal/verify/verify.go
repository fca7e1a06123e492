// Package verify is the static legality analyzer of the toolchain: a
// pass-based framework that proves a mapping or an assembled program
// legal without running it. Where the simulator (internal/sim) and the
// differential oracle (internal/oracle) check behavior dynamically, the
// verifier checks the artifact itself — every operand read delivers the
// value the CDFG prescribes, register files are never over-subscribed,
// per-tile contexts fit their context memories, context words
// round-trip through the binary encoding, branches resolve on the
// announced tile, loads and stores sit on LSU tiles, and pnop words
// account for exactly the idle cycles of each block.
//
// Each pass reads exactly one artifact. The dataflow pass reads the
// mapping (core.Mapping); every other pass reads the assembled program
// (asm.Program), the artifact the disk tier and the strip
// re-verification hold without a mapping.
//
// Each pass emits Diagnostics with stable codes (DF002, REG001, CM001,
// ...) attributed back to the CDFG: block, tile, cycle, and node. The
// codes are part of the package's API — tests and the oracle classify
// failures by them — and must never be renumbered or reused. These
// codes are retired, each because another check already proves its
// property:
//
//	ROUTE001  direction off the torus: DF001
//	ROUTE002  read of an undriven output register: DF002 (the
//	          undriven register holds no value the CDFG wants)
//	ROUTE003  neighbor table names a non-adjacent tile: could not fire
//	          (adjacency is defined by the neighbor table)
//	REG003    more distinct constants than the CRF holds: asm.Assemble
//	          (isa.CRF.Intern refuses the overflow; asm.LoadImage bounds
//	          a loaded CRF)
//	REG004    a home's final writer clobbers it: DF005
//	CM002     per-tile op/move/pnop counts disagree with the schedule:
//	          core.Mapping.Validate, run by asm.Assemble
//	CM003     program words disagree with the mapping's accounting:
//	          asm.Assemble's per-segment word check
//
// Importing this package (even blank) installs the dataflow pass as
// core.Map's hard post-condition via core.RegisterDataflowCheck, which
// keeps core free of an import cycle.
package verify

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/arch"
	"repro/internal/asm"
	"repro/internal/cdfg"
	"repro/internal/core"
)

func init() {
	core.RegisterDataflowCheck(Dataflow)
}

// Diagnostic is one verifier finding, attributed as precisely as the
// pass can: the basic block, the 0-based tile, the cycle within the
// block schedule, and the CDFG node involved. Unused attributions hold
// cdfg.None / -1.
type Diagnostic struct {
	// Code is the stable machine-readable identifier, e.g. "DF002".
	Code string
	// Pass names the emitting pass.
	Pass string

	Block     cdfg.BBID
	BlockName string
	Tile      int // 0-based tile index; rendered 1-based like the paper
	Cycle     int
	Node      cdfg.NodeID

	Msg string
}

func (d Diagnostic) String() string {
	var loc []string
	if d.Block != cdfg.None {
		if d.BlockName != "" {
			loc = append(loc, fmt.Sprintf("block %q", d.BlockName))
		} else {
			loc = append(loc, fmt.Sprintf("block b%d", d.Block))
		}
	}
	if d.Tile >= 0 {
		loc = append(loc, fmt.Sprintf("tile %d", d.Tile+1))
	}
	if d.Cycle >= 0 {
		loc = append(loc, fmt.Sprintf("cycle %d", d.Cycle))
	}
	if d.Node != cdfg.None {
		loc = append(loc, fmt.Sprintf("n%d", d.Node))
	}
	s := d.Code
	if len(loc) > 0 {
		s += " " + strings.Join(loc, " ")
	}
	return s + ": " + d.Msg
}

// Context is the verifier's input. Graph and Grid are required (they are
// derived from Mapping or Program when nil); Mapping and Program are
// each optional, and each pass runs when the one artifact it reads is
// present — see Pass.Needs.
type Context struct {
	Graph   *cdfg.Graph
	Grid    *arch.Grid
	Mapping *core.Mapping
	Program *asm.Program
}

// Need says which artifact a pass reads beyond Graph and Grid.
type Need int

const (
	// NeedMapping: the pass analyzes the (tile × cycle) schedule grid.
	NeedMapping Need = iota
	// NeedProgram: the pass analyzes assembled per-tile contexts.
	NeedProgram
)

// Pass is one independent legality check.
type Pass struct {
	// Name is the short pass identifier (also Diagnostic.Pass).
	Name string
	// Code is the diagnostic code prefix the pass owns.
	Code string
	// Needs declares the inputs the pass requires.
	Needs Need

	run func(*checker)
}

func (p *Pass) available(cx *Context) bool {
	if p.Needs == NeedMapping {
		return cx.Mapping != nil
	}
	return cx.Program != nil
}

// passes is the catalog in execution order.
var passes = []*Pass{
	dataflowPass,
	regsPass,
	lsuPass,
	cmPass,
	branchPass,
	encodePass,
	pnopPass,
}

// Result collects the diagnostics of one verifier run.
type Result struct {
	// Diags holds all findings in pass-catalog order (deterministic).
	Diags []Diagnostic
	// Ran and Skipped list pass names: Skipped passes lacked an input
	// (e.g. program-level passes on a mapping-only Context).
	Ran     []string
	Skipped []string
}

// OK reports whether the run produced no diagnostics.
func (r *Result) OK() bool { return len(r.Diags) == 0 }

// Err returns nil when the run is clean, otherwise an error summarizing
// the first diagnostic and the total count.
func (r *Result) Err() error {
	switch len(r.Diags) {
	case 0:
		return nil
	case 1:
		return errors.New("verify: " + r.Diags[0].String())
	}
	return fmt.Errorf("verify: %s (+%d more diagnostics)", r.Diags[0], len(r.Diags)-1)
}

// Report renders a human-readable account of the run: one line per pass
// with its verdict, then every diagnostic.
func (r *Result) Report() string {
	var sb strings.Builder
	byPass := map[string]int{}
	for _, d := range r.Diags {
		byPass[d.Pass]++
	}
	for _, name := range r.Ran {
		if n := byPass[name]; n > 0 {
			fmt.Fprintf(&sb, "  %-10s FAIL (%d)\n", name, n)
		} else {
			fmt.Fprintf(&sb, "  %-10s ok\n", name)
		}
	}
	for _, name := range r.Skipped {
		fmt.Fprintf(&sb, "  %-10s skipped\n", name)
	}
	for _, d := range r.Diags {
		fmt.Fprintf(&sb, "  error: %s\n", d)
	}
	return sb.String()
}

// Run executes every applicable pass over the context and returns the
// collected diagnostics. Passes whose inputs are absent are recorded in
// Result.Skipped, never silently dropped.
func Run(cx *Context) *Result {
	return runPasses(cx, passes)
}

func runPasses(cx *Context, ps []*Pass) *Result {
	c := *cx // derive missing Graph/Grid without mutating the caller's Context
	if c.Graph == nil {
		switch {
		case c.Mapping != nil:
			c.Graph = c.Mapping.Graph
		case c.Program != nil:
			c.Graph = c.Program.Graph
		}
	}
	if c.Grid == nil {
		switch {
		case c.Mapping != nil:
			c.Grid = c.Mapping.Grid
		case c.Program != nil:
			c.Grid = c.Program.Grid
		}
	}
	res := &Result{}
	if c.Graph == nil || c.Grid == nil {
		res.Diags = append(res.Diags, Diagnostic{
			Code: "VER001", Pass: "framework",
			Block: cdfg.None, Tile: -1, Cycle: -1, Node: cdfg.None,
			Msg: "verification context has no graph or grid",
		})
		return res
	}
	for _, p := range ps {
		if !p.available(&c) {
			res.Skipped = append(res.Skipped, p.Name)
			continue
		}
		p.run(&checker{cx: &c, pass: p, res: res})
		res.Ran = append(res.Ran, p.Name)
	}
	return res
}

// CheckProgram verifies an assembled program.
func CheckProgram(p *asm.Program) *Result {
	return Run(&Context{Program: p})
}

// Dataflow runs only the dataflow pass and returns its findings as an
// error. core.Map uses it as the mapping's hard post-condition.
func Dataflow(m *core.Mapping) error {
	return runPasses(&Context{Mapping: m}, []*Pass{dataflowPass}).Err()
}

// checker is the per-pass emission context.
type checker struct {
	cx   *Context
	pass *Pass
	res  *Result
}

// at is the attribution of a diagnostic; the zero value is not useful —
// use nowhere() and the fluent setters.
type at struct {
	blk  cdfg.BBID
	tile int
	cyc  int
	node cdfg.NodeID
}

func nowhere() at                     { return at{blk: cdfg.None, tile: -1, cyc: -1, node: cdfg.None} }
func atBlock(bb cdfg.BBID) at         { a := nowhere(); a.blk = bb; return a }
func (a at) onTile(t int) at          { a.tile = t; return a }
func (a at) atCycle(c int) at         { a.cyc = c; return a }
func (a at) forNode(n cdfg.NodeID) at { a.node = n; return a }

func (c *checker) diag(code string, a at, format string, args ...any) {
	d := Diagnostic{
		Code: code, Pass: c.pass.Name,
		Block: a.blk, Tile: a.tile, Cycle: a.cyc, Node: a.node,
		Msg: fmt.Sprintf(format, args...),
	}
	if a.blk != cdfg.None && int(a.blk) < len(c.cx.Graph.Blocks) {
		d.BlockName = c.cx.Graph.Blocks[a.blk].Name
	}
	c.res.Diags = append(c.res.Diags, d)
}
