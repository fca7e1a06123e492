package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRunOnThisModule gates the repository on its own linter: zero
// findings, exit-clean.
func TestRunOnThisModule(t *testing.T) {
	var sb strings.Builder
	n, err := run(&sb, "./...", false)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if n != 0 {
		t.Errorf("module has %d lint findings:\n%s", n, sb.String())
	}
}

// TestRunOnDirtyModule lints a throwaway module with a known violation
// and checks the finding line format.
func TestRunOnDirtyModule(t *testing.T) {
	dir := t.TempDir()
	write := func(name, src string) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(dir, name), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("go.mod", "module scratch\n\ngo 1.22\n")
	write("main.go", `package main

import "fmt"

func main() {
	m := map[string]int{"a": 1}
	for k := range m {
		fmt.Println(k)
	}
}
`)
	var sb strings.Builder
	n, err := run(&sb, dir, false)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if n != 1 {
		t.Fatalf("want 1 finding, got %d:\n%s", n, sb.String())
	}
	line := strings.TrimSpace(sb.String())
	if !strings.Contains(line, "main.go:8:3: maprange:") {
		t.Errorf("finding format: %q", line)
	}

	// The same module through -json: a parseable document with the same
	// finding, and a count CI can gate on without scraping text.
	sb.Reset()
	n, err = run(&sb, dir, true)
	if err != nil {
		t.Fatalf("run -json: %v", err)
	}
	if n != 1 {
		t.Fatalf("-json: want 1 finding, got %d:\n%s", n, sb.String())
	}
	var rep jsonReport
	if err := json.Unmarshal([]byte(sb.String()), &rep); err != nil {
		t.Fatalf("-json output does not parse: %v\n%s", err, sb.String())
	}
	if rep.Count != 1 || len(rep.Findings) != 1 {
		t.Fatalf("-json document shape: %+v", rep)
	}
	f := rep.Findings[0]
	if f.Rule != "maprange" || f.Line != 8 || f.Col != 3 ||
		!strings.HasSuffix(f.Path, "main.go") || f.Msg == "" {
		t.Errorf("-json finding: %+v", f)
	}
}

func TestModuleRootErrors(t *testing.T) {
	if _, err := moduleRoot(os.TempDir()); err == nil {
		t.Skip("a go.mod above the temp dir shadows this test")
	}
}
