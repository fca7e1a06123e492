package oracle

import (
	"testing"

	"repro/internal/cdfg"
)

// FuzzParseRepro feeds arbitrary bytes to the reproducer parser, the
// boundary every checked-in or user-supplied .repro file crosses. It must
// never panic: either it reports an error, or it returns a graph that
// passes cdfg.Verify with its memory image, and ParseRepro agrees with
// ParseReproMeta.
//
// The checked-in corpus (testdata/fuzz) holds the reproducers under
// testdata/repro.
func FuzzParseRepro(f *testing.F) {
	f.Add([]byte("mem 0\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		g, mem, _, err := ParseReproMeta(data)
		g2, mem2, err2 := ParseRepro(data)
		if (err == nil) != (err2 == nil) {
			t.Fatalf("ParseReproMeta error %v, ParseRepro error %v", err, err2)
		}
		if err != nil {
			return
		}
		if g == nil || mem == nil || g2 == nil || len(mem2) != len(mem) {
			t.Fatal("parse succeeded without a graph and a memory image")
		}
		if err := cdfg.Verify(g); err != nil {
			t.Fatalf("parsed graph does not verify: %v", err)
		}
	})
}
