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
// Verify.
func (g *Graph) MarshalText() ([]byte, error) {
	var sb strings.Builder
	fmt.Fprintf(&sb, "cdfg %s\n", strconv.Quote(g.Name))
	fmt.Fprintf(&sb, "entry %d\n", g.Entry)
	for _, b := range g.Blocks {
		fmt.Fprintf(&sb, "block %s\n", strconv.Quote(b.Name))
		for _, n := range b.Nodes {
			switch n.Op {
			case OpConst:
				fmt.Fprintf(&sb, "n const %d\n", n.Val)
			case OpSym:
				fmt.Fprintf(&sb, "n sym %s\n", strconv.Quote(n.Sym))
			default:
				fmt.Fprintf(&sb, "n %s", n.Op)
				for _, a := range n.Args {
					fmt.Fprintf(&sb, " %d", a)
				}
				sb.WriteString("\n")
			}
		}
		for _, s := range b.LiveOutSyms() {
			fmt.Fprintf(&sb, "liveout %s %d\n", strconv.Quote(s), b.LiveOut[s])
		}
		if b.Branch != None {
			fmt.Fprintf(&sb, "branch %d\n", b.Branch)
		}
		if len(b.Succs) > 0 {
			sb.WriteString("succs")
			for _, s := range b.Succs {
				fmt.Fprintf(&sb, " %d", s)
			}
			sb.WriteString("\n")
		}
		sb.WriteString("end\n")
	}
	return []byte(sb.String()), nil
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
