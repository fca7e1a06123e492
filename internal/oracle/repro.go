package oracle

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"repro/internal/cdfg"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Reproducer files pair a minimized graph with its initial memory and a
// human-readable diagnosis. They live under testdata/ and are replayed by
// plain `go test`, so any failure the oracle ever shrank keeps guarding
// the mapper. Format: '#' comment lines (the diagnosis), an optional
// "backends <ref> <sub>" line naming the backend pair of a cross-backend
// disagreement (absent for mapper-vs-interpreter reproducers), a
// "mem <len>" line, "memval <addr> <val>" lines for the nonzero words,
// then the cdfg text form.

// FormatRepro renders a reproducer file. pair is the backend pair of a
// cross-backend failure (Pipeline.Backends), recorded as a "backends"
// directive so the replay runs the same differential; nil for a
// mapper-vs-interpreter failure. The failure parameter carries the
// diagnostics into the header; it may be zero-valued for hand-written
// cases.
func FormatRepro(g *cdfg.Graph, mem cdfg.Memory, seed int64, pair *BackendPair, failure CellResult) ([]byte, error) {
	var sb strings.Builder
	if pair != nil {
		fmt.Fprintf(&sb, "# oracle reproducer: %s (seed %d, %s)\n", g.Name, seed, pair)
	} else {
		fmt.Fprintf(&sb, "# oracle reproducer: %s (seed %d)\n", g.Name, seed)
	}
	if failure.Outcome.Bug() {
		fmt.Fprintf(&sb, "# cell %s outcome %s\n", failure.Cell, failure.Outcome)
		var div *sim.DivergenceError
		if errors.As(failure.Err, &div) {
			words := make([]trace.DivergentWord, len(div.Mismatches))
			for i, m := range div.Mismatches {
				words[i] = trace.DivergentWord{Addr: m.Addr, Ref: m.Ref, Got: m.Got}
			}
			for _, line := range strings.Split(strings.TrimRight(
				trace.Divergence(g.Name, failure.Cell.Mode.String(), string(failure.Cell.Config),
					div.Cycles, div.Total, words), "\n"), "\n") {
				fmt.Fprintf(&sb, "# %s\n", line)
			}
		} else if failure.Err != nil {
			fmt.Fprintf(&sb, "# error: %v\n", failure.Err)
		}
		if pair != nil {
			fmt.Fprintf(&sb, "# words: %s %d, %s %d\n",
				pair.Ref.Name(), failure.RefWords, pair.Sub.Name(), failure.SubWords)
		}
	}
	if pair != nil {
		fmt.Fprintf(&sb, "backends %s %s\n", pair.Ref.Name(), pair.Sub.Name())
	}
	fmt.Fprintf(&sb, "mem %d\n", len(mem))
	for i, v := range mem {
		if v != 0 {
			fmt.Fprintf(&sb, "memval %d %d\n", i, v)
		}
	}
	gtxt, err := g.MarshalText()
	if err != nil {
		return nil, err
	}
	sb.Write(gtxt)
	return []byte(sb.String()), nil
}

// ParseRepro parses a reproducer: the directives plus the cdfg text.
func ParseRepro(data []byte) (*cdfg.Graph, cdfg.Memory, error) {
	g, mem, _, err := ParseReproMeta(data)
	return g, mem, err
}

// ParseReproMeta parses a reproducer including its backend pair: nil for a
// mapper-vs-interpreter reproducer, the resolved pair when the file has a
// "backends" directive.
func ParseReproMeta(data []byte) (*cdfg.Graph, cdfg.Memory, *BackendPair, error) {
	var mem cdfg.Memory
	var pair *BackendPair
	var graphText bytes.Buffer
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		f := strings.Fields(line)
		switch {
		case len(f) > 0 && f[0] == "mem":
			if len(f) != 2 {
				return nil, nil, nil, fmt.Errorf("oracle: mem wants a length")
			}
			n, err := strconv.Atoi(f[1])
			if err != nil || n < 0 || n > 1<<20 {
				return nil, nil, nil, fmt.Errorf("oracle: bad mem length %q", f[1])
			}
			mem = make(cdfg.Memory, n)
		case len(f) > 0 && f[0] == "memval":
			if len(f) != 3 {
				return nil, nil, nil, fmt.Errorf("oracle: memval wants an address and a value")
			}
			a, err1 := strconv.Atoi(f[1])
			v, err2 := strconv.ParseInt(f[2], 10, 32)
			if err1 != nil || err2 != nil || a < 0 || a >= len(mem) {
				return nil, nil, nil, fmt.Errorf("oracle: bad memval %q", line)
			}
			mem[a] = int32(v)
		case len(f) > 0 && f[0] == "backends":
			if len(f) != 3 {
				return nil, nil, nil, fmt.Errorf("oracle: backends wants a reference and a subject name")
			}
			// Resolve eagerly so a typo fails at parse time, not when the
			// replay silently checks the wrong pair.
			var err error
			if pair, err = BackendPairByNames(f[1], f[2]); err != nil {
				return nil, nil, nil, fmt.Errorf("oracle: bad backends directive %q: %w", line, err)
			}
		default:
			graphText.WriteString(line)
			graphText.WriteString("\n")
		}
	}
	if err := sc.Err(); err != nil {
		return nil, nil, nil, err
	}
	if mem == nil {
		return nil, nil, nil, fmt.Errorf("oracle: reproducer has no mem directive")
	}
	g, err := cdfg.UnmarshalText(graphText.Bytes())
	if err != nil {
		return nil, nil, nil, err
	}
	return g, mem, pair, nil
}

// WriteRepro writes a reproducer file into dir (created if needed) and
// returns its path.
func WriteRepro(dir, name string, g *cdfg.Graph, mem cdfg.Memory, seed int64, pair *BackendPair, failure CellResult) (string, error) {
	data, err := FormatRepro(g, mem, seed, pair, failure)
	if err != nil {
		return "", err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name+".repro")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return "", err
	}
	return path, nil
}

// LoadReproMeta reads and parses a reproducer file with its backend pair.
func LoadReproMeta(path string) (*cdfg.Graph, cdfg.Memory, *BackendPair, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, nil, err
	}
	return ParseReproMeta(data)
}

// ReproPaths lists the .repro files under dir, sorted; a missing dir is
// an empty list.
func ReproPaths(dir string) ([]string, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.repro"))
	if err != nil {
		return nil, err
	}
	return paths, nil
}
