// Command cgralint runs the repository's own static analysis
// (internal/lint) over the module: determinism-sensitive map iteration,
// nondeterminism sources inside the mapper, dropped errors on toolchain
// boundaries, console prints, and exported API no non-test code uses. It prints one finding per line as
// path:line:col: rule: message and exits 1 when anything is found, so
// CI can gate on it next to go vet.
//
// Usage:
//
//	cgralint [-json] [dir]
//
// dir (default ".") may be anywhere inside the module; the module root
// is located by walking up to go.mod. A trailing "..." is accepted and
// ignored — the whole module is always analyzed.
//
// -json prints the findings as one JSON object — {"findings": [...],
// "count": N} with path/line/col/rule/msg per finding — for CI
// artifacts and editor integrations; exit codes are unchanged.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/lint"
)

func main() {
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: cgralint [-json] [dir]\n")
		flag.PrintDefaults()
	}
	asJSON := flag.Bool("json", false, "print findings as JSON instead of one line per finding")
	flag.Parse()
	dir := "."
	if flag.NArg() > 0 {
		dir = flag.Arg(0)
	}
	n, err := run(os.Stdout, dir, *asJSON)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cgralint:", err)
		os.Exit(2)
	}
	if n > 0 {
		os.Exit(1)
	}
}

// jsonFinding is the machine-readable shape of one finding.
type jsonFinding struct {
	Path string `json:"path"`
	Line int    `json:"line"`
	Col  int    `json:"col"`
	Rule string `json:"rule"`
	Msg  string `json:"msg"`
}

// jsonReport is the -json output document.
type jsonReport struct {
	Findings []jsonFinding `json:"findings"`
	Count    int           `json:"count"`
}

// run analyzes the module containing dir and prints findings; it
// returns the finding count.
func run(w io.Writer, dir string, asJSON bool) (int, error) {
	dir = strings.TrimSuffix(dir, "...")
	if dir == "" {
		dir = "."
	}
	root, err := moduleRoot(dir)
	if err != nil {
		return 0, err
	}
	findings, err := lint.Analyze(root, nil)
	if err != nil {
		return 0, err
	}
	if asJSON {
		rep := jsonReport{Findings: make([]jsonFinding, 0, len(findings)), Count: len(findings)}
		for _, f := range findings {
			rep.Findings = append(rep.Findings, jsonFinding{
				Path: f.Pos.Filename, Line: f.Pos.Line, Col: f.Pos.Column,
				Rule: f.Rule, Msg: f.Msg,
			})
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			return 0, err
		}
		return len(findings), nil
	}
	for _, f := range findings {
		fmt.Fprintln(w, f)
	}
	return len(findings), nil
}

// moduleRoot walks up from dir to the directory holding go.mod.
func moduleRoot(dir string) (string, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for d := abs; ; {
		if _, err := os.Stat(filepath.Join(d, "go.mod")); err == nil {
			return d, nil
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", fmt.Errorf("no go.mod above %s", abs)
		}
		d = parent
	}
}
