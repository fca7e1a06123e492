package lint

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// analyzeSrc type-checks one synthetic file as a module package and
// runs the full rule set over it.
func analyzeSrc(t *testing.T, pkgPath, src string) []Finding {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "fixture.go", src, parser.SkipObjectResolution)
	if err != nil {
		t.Fatalf("fixture does not parse: %v", err)
	}
	info := newInfo()
	conf := types.Config{Importer: importer.ForCompiler(fset, "source", nil)}
	tpkg, err := conf.Check(pkgPath, fset, []*ast.File{f}, info)
	if err != nil {
		t.Fatalf("fixture does not type-check: %v", err)
	}
	p := &Package{Path: pkgPath, Module: "repro", Fset: fset, Files: []*ast.File{f}, Info: info, Types: tpkg}
	return check(p, Rules())
}

// rulesOf extracts the distinct rule names of the findings.
func rulesOf(fs []Finding) map[string]int {
	m := map[string]int{}
	for _, f := range fs {
		m[f.Rule]++
	}
	return m
}

func TestMaprangeFlagsSinks(t *testing.T) {
	fs := analyzeSrc(t, "repro/internal/demo", `package demo

import "fmt"

func Output(m map[string]int) {
	for k, v := range m {
		fmt.Println(k, v) // sink: output
	}
}

func Early(m map[string]int) int {
	for _, v := range m {
		if v > 0 {
			return v // sink: non-constant return
		}
	}
	return 0
}

func Break(m map[string]int, limit int) {
	n := 0
	for range m {
		n++
		if n == limit {
			break // sink: loop exit
		}
	}
	_ = n
}

func Send(m map[string]int, ch chan int) {
	for _, v := range m {
		ch <- v // sink: send order
	}
}

func Collect(m map[string]int) []int {
	var out []int
	for _, v := range m {
		out = append(out, v) // sink: unsorted accumulation
	}
	return out
}
`)
	got := rulesOf(fs)
	if got["maprange"] != 5 {
		t.Errorf("want 5 maprange findings, got %d:\n%v", got["maprange"], fs)
	}
}

func TestMaprangeAllowsOrderIndependentWork(t *testing.T) {
	fs := analyzeSrc(t, "repro/internal/demo", `package demo

import "sort"

// Sum accumulates commutatively: order-independent.
func Sum(m map[string]int) int {
	total := 0
	for _, v := range m {
		total += v
	}
	return total
}

// Keys appends but sorts before anyone sees the slice.
func Keys(m map[string]int) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Found returns a constant: whichever iteration hits, the answer is
// the same.
func Found(m map[string]int, want int) bool {
	for _, v := range m {
		if v == want {
			return true
		}
	}
	return false
}

// NestedBreak only exits the inner (slice) loop.
func NestedBreak(m map[string][]int) int {
	total := 0
	for _, vs := range m {
		for _, v := range vs {
			if v < 0 {
				break
			}
			total += v
		}
	}
	return total
}

// LocalAppend's slice dies with the iteration.
func LocalAppend(m map[string][]int) int {
	n := 0
	for _, vs := range m {
		var pos []int
		for _, v := range vs {
			if v > 0 {
				pos = append(pos, v)
			}
		}
		n += len(pos)
	}
	return n
}
`)
	if len(fs) != 0 {
		t.Errorf("clean fixture produced findings:\n%v", fs)
	}
}

func TestDetrandFlagsGlobalRandAndClock(t *testing.T) {
	fs := analyzeSrc(t, "repro/internal/core", `package core

import (
	"math/rand"
	"time"
)

func Bad() int {
	if time.Now().Unix()%2 == 0 { // flagged: wall clock steers behavior
		return rand.Intn(10) // flagged: global source
	}
	return 0
}

func Good(seed int64) (int, time.Duration) {
	start := time.Now() // ok: only feeds time.Since
	rng := rand.New(rand.NewSource(seed))
	v := rng.Intn(10)
	return v, time.Since(start)
}
`)
	got := rulesOf(fs)
	if got["detrand"] != 2 {
		t.Errorf("want 2 detrand findings, got %d:\n%v", got["detrand"], fs)
	}
}

func TestDetrandScopedToCoreAndSim(t *testing.T) {
	fs := analyzeSrc(t, "repro/internal/elsewhere", `package elsewhere

import "math/rand"

func Free() int { return rand.Intn(10) }
`)
	if got := rulesOf(fs); got["detrand"] != 0 {
		t.Errorf("detrand must only apply to internal/core and internal/sim:\n%v", fs)
	}
}

// TestDetrandSimFlagsEnvAndClock pins the simulator scope: internal/sim
// is held to the same rand/clock rules as the mapper, plus a ban on
// environment reads — cycle counts must depend only on the bitstream
// and memory image.
func TestDetrandSimFlagsEnvAndClock(t *testing.T) {
	fs := analyzeSrc(t, "repro/internal/sim", `package sim

import (
	"math/rand"
	"os"
	"time"
)

func Bad() int {
	if os.Getenv("SIM_FAST") != "" { // flagged: environment steers the sim
		return rand.Intn(10) // flagged: global source
	}
	if _, ok := os.LookupEnv("SIM_TRACE"); ok { // flagged: environment read
		return int(time.Now().Unix()) // flagged: wall clock
	}
	return 0
}

func Good(seed int64) (int, time.Duration) {
	start := time.Now() // ok: only feeds time.Since
	rng := rand.New(rand.NewSource(seed))
	v := rng.Intn(10)
	return v, time.Since(start)
}
`)
	got := rulesOf(fs)
	if got["detrand"] != 4 {
		t.Errorf("want 4 detrand findings, got %d:\n%v", got["detrand"], fs)
	}
	var envMsgs int
	for _, f := range fs {
		if f.Rule == "detrand" && strings.Contains(f.Msg, "environment read") {
			envMsgs++
		}
	}
	if envMsgs != 2 {
		t.Errorf("want 2 environment findings, got %d:\n%v", envMsgs, fs)
	}
}

// TestDetrandCoreFlagsEnv pins that internal/core has no environment
// exemption: every mapper setting is a core.Options field, so os.Getenv
// and os.LookupEnv are flagged there exactly as in internal/sim.
func TestDetrandCoreFlagsEnv(t *testing.T) {
	fs := analyzeSrc(t, "repro/internal/core", `package core

import "os"

func Budget() string { return os.Getenv("EXACT_NODE_BUDGET") }

func Salt() bool {
	_, ok := os.LookupEnv("MAPPER_SALT")
	return ok
}
`)
	if got := rulesOf(fs); got["detrand"] != 2 {
		t.Errorf("os.Getenv and os.LookupEnv in internal/core must be flagged, got %d:\n%v", got["detrand"], fs)
	}
}

// TestDetrandMapcacheFlagsEnvAndClock pins the mapping-cache scope: a
// content-addressed cache key must be a pure function of the request, so
// internal/mapcache is held to the simulator's rules — no wall clock, no
// global rand, no environment reads.
func TestDetrandMapcacheFlagsEnvAndClock(t *testing.T) {
	fs := analyzeSrc(t, "repro/internal/mapcache", `package mapcache

import (
	"fmt"
	"os"
	"time"
)

func BadKey(base string) string {
	if os.Getenv("MAPCACHE_SALT") != "" { // flagged: environment steers the key
		base += os.Getenv("MAPCACHE_SALT") // flagged: environment read
	}
	return fmt.Sprintf("%s@%d", base, time.Now().UnixNano()) // flagged: wall clock in a key
}

func GoodTiming() time.Duration {
	start := time.Now() // ok: only feeds time.Since
	return time.Since(start)
}
`)
	got := rulesOf(fs)
	if got["detrand"] != 3 {
		t.Errorf("want 3 detrand findings, got %d:\n%v", got["detrand"], fs)
	}
	for _, f := range fs {
		if f.Rule == "detrand" && !strings.Contains(f.Msg, "mapping cache") {
			t.Errorf("mapcache finding not attributed to the mapping cache: %v", f)
		}
	}
}

// TestMaprangeFlagsKeyFromMapIteration pins that building a cache key by
// iterating a map unsorted is caught: strings.Builder writes inside a map
// range are order-dependent output.
func TestMaprangeFlagsKeyFromMapIteration(t *testing.T) {
	fs := analyzeSrc(t, "repro/internal/mapcache", `package mapcache

import "strings"

func BadKey(parts map[string]string) string {
	var b strings.Builder
	for k, v := range parts {
		b.WriteString(k) // flagged: key bytes depend on map order
		b.WriteString(v) // flagged
	}
	return b.String()
}
`)
	if got := rulesOf(fs); got["maprange"] != 2 {
		t.Errorf("want 2 maprange findings, got %d:\n%v", got["maprange"], fs)
	}
}

func TestErrcheckFlagsDroppedModuleErrors(t *testing.T) {
	fs := analyzeSrc(t, "repro/internal/demo", `package demo

import "fmt"

func encode() error { return nil }
func decode() (int, error) { return 0, nil }

func Bad() {
	encode() // flagged: dropped error
}

func Good() error {
	if err := encode(); err != nil {
		return err
	}
	_ = encode() // explicit waiver
	v, err := decode()
	fmt.Println(v) // stdlib: exempt
	return err
}
`)
	got := rulesOf(fs)
	if got["errcheck"] != 1 {
		t.Errorf("want 1 errcheck finding, got %d:\n%v", got["errcheck"], fs)
	}
}

// TestRepoIsClean is the acceptance property: the module's own non-test
// sources carry zero findings. Any new violation fails `go test` and CI
// (scripts/ci.sh also runs cgralint).
func TestRepoIsClean(t *testing.T) {
	fs, err := Analyze("../..", nil)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	for _, f := range fs {
		t.Errorf("%s", f)
	}
}

func TestAnalyzeSortsFindings(t *testing.T) {
	fs := []Finding{
		{Pos: token.Position{Filename: "b.go", Line: 2}, Rule: "x"},
		{Pos: token.Position{Filename: "a.go", Line: 9}, Rule: "x"},
		{Pos: token.Position{Filename: "a.go", Line: 3, Column: 7}, Rule: "x"},
		{Pos: token.Position{Filename: "a.go", Line: 3, Column: 1}, Rule: "x"},
	}
	sortFindings(fs)
	var got []string
	for _, f := range fs {
		got = append(got, f.String())
	}
	want := []string{
		"a.go:3:1: x: ",
		"a.go:3:7: x: ",
		"a.go:9: x: ",
		"b.go:2: x: ",
	}
	for i := range want {
		if !strings.HasPrefix(got[i], want[i][:len(want[i])-3]) {
			t.Fatalf("order %d: got %q", i, got[i])
		}
	}
}

func TestRulesMetadata(t *testing.T) {
	seen := map[string]bool{}
	for _, r := range Rules() {
		if r.Name == "" || (r.Check == nil) == (r.CheckModule == nil) {
			t.Errorf("rule %+v misses metadata", r)
		}
		if seen[r.Name] {
			t.Errorf("duplicate rule name %q", r.Name)
		}
		seen[r.Name] = true
	}
}

func TestNoprintFlagsConsoleOutput(t *testing.T) {
	fs := analyzeSrc(t, "repro/internal/sim", `package sim

import (
	"fmt"
	"io"
	"log"
)

func Bad(x int) {
	fmt.Println("state:", x) // flagged: stdout
	fmt.Printf("%d\n", x)    // flagged: stdout
	log.Printf("x=%d", x)    // flagged: log
}

func Good(w io.Writer, x int) string {
	fmt.Fprintf(w, "%d\n", x) // caller-supplied writer: fine
	return fmt.Sprintf("%d", x)
}
`)
	if got := rulesOf(fs); got["noprint"] != 3 {
		t.Errorf("want 3 noprint findings, got %d:\n%v", got["noprint"], fs)
	}
}

func TestNoprintScopedToCoreAndSim(t *testing.T) {
	fs := analyzeSrc(t, "repro/internal/trace", `package trace

import "fmt"

func Render() { fmt.Println("tables may print") }
`)
	if got := rulesOf(fs); got["noprint"] != 0 {
		t.Errorf("noprint must only apply to internal/core, internal/sim and internal/telemetry:\n%v", fs)
	}
}

// TestNoprintCoversTelemetry pins the rule's extension to the embedded
// telemetry server: handlers write to the response writer, never to the
// process's stdout (which the embedding CLI golden-diffs).
func TestNoprintCoversTelemetry(t *testing.T) {
	fs := analyzeSrc(t, "repro/internal/telemetry", `package telemetry

import (
	"fmt"
	"io"
	"log"
)

func Bad(addr string) {
	fmt.Println("serving on", addr) // flagged: stdout belongs to the CLI
	log.Printf("serving on %s", addr) // flagged: log side effect
}

func Good(w io.Writer, addr string) {
	fmt.Fprintf(w, "serving on %s\n", addr) // response writer: fine
}
`)
	got := rulesOf(fs)
	if got["noprint"] != 2 {
		t.Errorf("want 2 noprint findings in internal/telemetry, got %d:\n%v", got["noprint"], fs)
	}
	for _, f := range fs {
		if f.Rule == "noprint" && !strings.Contains(f.Msg, "telemetry server") {
			t.Errorf("telemetry finding does not name the telemetry server: %q", f.Msg)
		}
	}
}

// TestDetrandCoversTelemetry: the live-observability layer must not
// branch on the wall clock, draw from the global rand source, or read
// configuration from the environment — its outputs are a function of
// the events and metrics it is handed.
func TestDetrandCoversTelemetry(t *testing.T) {
	fs := analyzeSrc(t, "repro/internal/telemetry", `package telemetry

import (
	"math/rand"
	"os"
	"time"
)

func Bad() (int, string, time.Time) {
	jitter := rand.Intn(100)        // flagged: global source
	addr := os.Getenv("SERVE_ADDR") // flagged: env config
	return jitter, addr, time.Now() // flagged: wall-clock read
}

func Good(t0 time.Time) time.Duration {
	return time.Since(t0) // durations are fine
}
`)
	got := rulesOf(fs)
	if got["detrand"] != 3 {
		t.Errorf("want 3 detrand findings in internal/telemetry, got %d:\n%v", got["detrand"], fs)
	}
	for _, f := range fs {
		if f.Rule == "detrand" && !strings.Contains(f.Msg, "telemetry server") {
			t.Errorf("telemetry finding does not name the telemetry server: %q", f.Msg)
		}
	}
}

// TestUnusedAPIFixture runs the unusedapi rule over a throwaway module:
// a library package, a test file in it, and a package main that uses
// part of the library the way bench/ uses the toolchain.
func TestUnusedAPIFixture(t *testing.T) {
	dir := t.TempDir()
	files := map[string]string{
		"go.mod": "module scratch\n\ngo 1.22\n",
		"lib/lib.go": `package lib

import "fmt"

type Shape interface{ Area() int }

type Square struct{ N int }

func (s Square) Area() int      { return s.N * s.N } // satisfies Shape
func (s Square) String() string { return fmt.Sprint(s.N) }
func (s Square) Perimeter() int { return 4 * s.N } // flagged

type Failure struct{}

func (Failure) Error() string { return "failure" }

func Describe(s Shape) int { return s.Area() }
func Unused()              {} // flagged
func TestOnly()            {} // flagged: only lib_test.go calls it
func Kept()                {} // allow-listed
func UsedByMain() error    { return Failure{} }

var Table = []int{1} // flagged
`,
		"lib/lib_test.go": `package lib

import "testing"

func TestLib(t *testing.T) { TestOnly() }
`,
		"bench/main.go": `package main

import "scratch/lib"

func main() {
	_ = lib.Describe(lib.Square{N: 2})
	_ = lib.UsedByMain()
}
`,
	}
	for name, src := range files {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	rule := &Rule{Name: "unusedapi", CheckModule: func(ps []*Package) []Finding {
		return checkUnusedAPI(ps, map[string]string{
			"scratch/lib.Kept":    "kept on purpose",
			"scratch/lib.Missing": "names nothing",
		})
	}}
	fs, err := Analyze(dir, []*Rule{rule})
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, f := range fs {
		got = append(got, f.Msg)
	}
	want := []string{
		"lib.Square.Perimeter has no non-test user",
		"lib.Unused has no non-test user",
		"lib.TestOnly has no non-test user",
		"lib.Table has no non-test user",
		"allow-list entry scratch/lib.Missing covers no unused symbol",
	}
	if len(got) != len(want) {
		t.Fatalf("got %d findings, want %d:\n%s", len(got), len(want), strings.Join(got, "\n"))
	}
	for _, w := range want {
		found := false
		for _, g := range got {
			found = found || strings.HasPrefix(g, w)
		}
		if !found {
			t.Errorf("missing finding %q in:\n%s", w, strings.Join(got, "\n"))
		}
	}
}
