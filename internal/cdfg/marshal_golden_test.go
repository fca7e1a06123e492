package cdfg_test

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"testing"

	"repro/internal/cdfg"
	"repro/internal/kernels"
)

var updateGolden = flag.Bool("update-golden", false,
	"rewrite testdata/marshal_sha256.txt from the current MarshalText output")

const marshalGoldenPath = "testdata/marshal_sha256.txt"

// TestMarshalTextGolden pins the SHA-256 of MarshalText for the seven
// suite kernels and 50 generated graphs. The text is the graph half of
// every mapping-cache key and is stored in every disk entry, so any
// byte it changes turns old cache entries into misses. Regenerate
// deliberately with:
//
//	go test -run TestMarshalTextGolden -update-golden ./internal/cdfg
func TestMarshalTextGolden(t *testing.T) {
	var sb strings.Builder
	line := func(what string, g *cdfg.Graph) {
		text, err := g.MarshalText()
		if err != nil {
			t.Fatalf("%s: MarshalText: %v", what, err)
		}
		fmt.Fprintf(&sb, "%s %x\n", what, sha256.Sum256(text))
	}
	for _, k := range kernels.All() {
		line("kernel "+k.Name, k.Build())
	}
	for seed := int64(0); seed < 50; seed++ {
		g, _ := cdfg.Generate(rand.New(rand.NewSource(seed)), cdfg.DefaultGenConfig())
		line(fmt.Sprintf("seed %d", seed), g)
	}
	got := sb.String()
	if *updateGolden {
		if err := os.WriteFile(marshalGoldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(marshalGoldenPath)
	if err != nil {
		t.Fatalf("missing golden file (generate with -update-golden): %v", err)
	}
	gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	if len(gotLines) != len(wantLines) {
		t.Fatalf("%d golden lines, want %d", len(gotLines), len(wantLines))
	}
	for i := range gotLines {
		if gotLines[i] != wantLines[i] {
			t.Errorf("graph text drifted: got %q, golden %q", gotLines[i], wantLines[i])
		}
	}
}
