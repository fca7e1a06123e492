package cdfg

import (
	"bufio"
	"bytes"
	"fmt"
	"strconv"
	"strings"
)

// Text serialization of graphs: a line-oriented format stable enough to
// check minimized oracle reproducers into testdata/ and feed graphs
// through the native fuzzing engine. Lines starting with '#' are
// comments. Names are quoted with Go syntax. Example:
//
//	cdfg "gen01"
//	entry 0
//	block "entry"
//	n const 0
//	liveout "i" 0
//	succs 1
//	end
//	block "loop"
//	n sym "i"
//	n const 1
//	n add 0 1
//	n br 2
//	liveout "i" 2
//	branch 3
//	succs 1 2
//	end
//	...

var opcodeByName = func() map[string]Opcode {
	m := make(map[string]Opcode, len(opNames))
	for op, name := range opNames {
		if name != "" {
			m[name] = Opcode(op)
		}
	}
	return m
}()

// OpcodeByName returns the opcode with the given String() name.
func OpcodeByName(name string) (Opcode, bool) {
	op, ok := opcodeByName[name]
	return op, ok
}

// MarshalText renders the graph in the package's line-oriented text form.
// The output round-trips through UnmarshalText for any graph that passes
// Verify. It is also the graph half of every mapping-cache key, so it
// appends into one buffer sized from the graph rather than formatting
// line by line.
func (g *Graph) MarshalText() ([]byte, error) {
	size := 32 + len(g.Name)
	for _, b := range g.Blocks {
		size += 32 + len(b.Name) + 16*len(b.Nodes) + 24*len(b.LiveOut) + 8*len(b.Succs)
	}
	buf := make([]byte, 0, size)
	buf = append(buf, "cdfg "...)
	buf = strconv.AppendQuote(buf, g.Name)
	buf = append(buf, "\nentry "...)
	buf = strconv.AppendInt(buf, int64(g.Entry), 10)
	buf = append(buf, '\n')
	for _, b := range g.Blocks {
		buf = append(buf, "block "...)
		buf = strconv.AppendQuote(buf, b.Name)
		buf = append(buf, '\n')
		for _, n := range b.Nodes {
			switch n.Op {
			case OpConst:
				buf = append(buf, "n const "...)
				buf = strconv.AppendInt(buf, int64(n.Val), 10)
			case OpSym:
				buf = append(buf, "n sym "...)
				buf = strconv.AppendQuote(buf, n.Sym)
			default:
				buf = append(buf, "n "...)
				buf = append(buf, n.Op.String()...)
				for _, a := range n.Args {
					buf = append(buf, ' ')
					buf = strconv.AppendInt(buf, int64(a), 10)
				}
			}
			buf = append(buf, '\n')
		}
		b.LiveOuts(func(s string, def NodeID) bool {
			buf = append(buf, "liveout "...)
			buf = strconv.AppendQuote(buf, s)
			buf = append(buf, ' ')
			buf = strconv.AppendInt(buf, int64(def), 10)
			buf = append(buf, '\n')
			return true
		})
		if b.Branch != None {
			buf = append(buf, "branch "...)
			buf = strconv.AppendInt(buf, int64(b.Branch), 10)
			buf = append(buf, '\n')
		}
		if len(b.Succs) > 0 {
			buf = append(buf, "succs"...)
			for _, s := range b.Succs {
				buf = append(buf, ' ')
				buf = strconv.AppendInt(buf, int64(s), 10)
			}
			buf = append(buf, '\n')
		}
		buf = append(buf, "end\n"...)
	}
	return buf, nil
}

// UnmarshalText parses the format produced by MarshalText and verifies
// the result, so a successful parse always yields a mapper-ready graph.
func UnmarshalText(data []byte) (*Graph, error) {
	g, err := parseText(data)
	if err != nil {
		return nil, err
	}
	if err := Verify(g); err != nil {
		return nil, err
	}
	return g, nil
}

// parseText parses the text form without verifying the graph.
func parseText(data []byte) (*Graph, error) {
	g := &Graph{Entry: None}
	var cur *BasicBlock
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Fields(line)
		fail := func(format string, args ...any) (*Graph, error) {
			return nil, fmt.Errorf("cdfg: line %d: %s", lineNo, fmt.Sprintf(format, args...))
		}
		switch f[0] {
		case "cdfg":
			if len(f) != 2 {
				return fail("cdfg wants a quoted name")
			}
			name, err := strconv.Unquote(f[1])
			if err != nil {
				return fail("bad name: %v", err)
			}
			g.Name = name
		case "entry":
			id, err := parseID(f, 1)
			if err != nil {
				return fail("%v", err)
			}
			g.Entry = BBID(id)
		case "block":
			if len(f) != 2 {
				return fail("block wants a quoted name")
			}
			name, err := strconv.Unquote(f[1])
			if err != nil {
				return fail("bad block name: %v", err)
			}
			cur = &BasicBlock{
				ID:      BBID(len(g.Blocks)),
				Name:    name,
				LiveOut: map[string]NodeID{},
				Branch:  None,
			}
			g.Blocks = append(g.Blocks, cur)
		case "n":
			if cur == nil {
				return fail("node outside a block")
			}
			if len(f) < 2 {
				return fail("node wants an opcode")
			}
			n := &Node{ID: NodeID(len(cur.Nodes))}
			switch f[1] {
			case "const":
				if len(f) != 3 {
					return fail("const wants a value")
				}
				v, err := strconv.ParseInt(f[2], 10, 32)
				if err != nil {
					return fail("bad const: %v", err)
				}
				n.Op, n.Val = OpConst, int32(v)
			case "sym":
				if len(f) != 3 {
					return fail("sym wants a quoted name")
				}
				s, err := strconv.Unquote(f[2])
				if err != nil {
					return fail("bad sym name: %v", err)
				}
				n.Op, n.Sym = OpSym, s
			default:
				op, ok := OpcodeByName(f[1])
				if !ok {
					return fail("unknown opcode %q", f[1])
				}
				n.Op = op
				for _, a := range f[2:] {
					id, err := strconv.Atoi(a)
					if err != nil {
						return fail("bad arg %q", a)
					}
					n.Args = append(n.Args, NodeID(id))
				}
			}
			cur.Nodes = append(cur.Nodes, n)
		case "liveout":
			if cur == nil {
				return fail("liveout outside a block")
			}
			if len(f) != 3 {
				return fail("liveout wants a name and a node id")
			}
			s, err := strconv.Unquote(f[1])
			if err != nil {
				return fail("bad liveout name: %v", err)
			}
			id, err := strconv.Atoi(f[2])
			if err != nil {
				return fail("bad liveout node: %v", err)
			}
			cur.LiveOut[s] = NodeID(id)
		case "branch":
			if cur == nil {
				return fail("branch outside a block")
			}
			id, err := parseID(f, 1)
			if err != nil {
				return fail("%v", err)
			}
			cur.Branch = NodeID(id)
		case "succs":
			if cur == nil {
				return fail("succs outside a block")
			}
			for _, a := range f[1:] {
				id, err := strconv.Atoi(a)
				if err != nil {
					return fail("bad successor %q", a)
				}
				cur.Succs = append(cur.Succs, BBID(id))
			}
		case "end":
			cur = nil
		default:
			return fail("unknown directive %q", f[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("cdfg: %w", err)
	}
	return g, nil
}

func parseID(f []string, i int) (int, error) {
	if len(f) != i+1 {
		return 0, fmt.Errorf("%s wants one integer", f[0])
	}
	return strconv.Atoi(f[i])
}
