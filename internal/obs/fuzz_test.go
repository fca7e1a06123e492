package obs

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// FuzzReadEvents holds the event reader cgratrace loads outside files
// with to its contract: any input is either rejected with an error, or
// it decodes to events that BuildSpanForest either rejects with an
// error or turns into a forest whose spans are all closed — never a
// panic. The seeds are the cgratrace fixtures; the checked-in corpus
// (testdata/fuzz/FuzzReadEvents) adds the fixture in the Chrome
// trace_event object form, truncations of both forms, restarting
// simulator timestamps, and events that break the span structure.
func FuzzReadEvents(f *testing.F) {
	for _, name := range []string{"trace_old.jsonl", "trace_new.jsonl"} {
		data, err := os.ReadFile(filepath.Join("..", "..", "cmd", "cgratrace", "testdata", name))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		events, err := ReadEvents(bytes.NewReader(data))
		if err != nil {
			return
		}
		roots, err := BuildSpanForest(events)
		if err != nil {
			return
		}
		var walk func([]*SpanNode)
		walk = func(nodes []*SpanNode) {
			for _, n := range nodes {
				if n.Dur < 0 {
					t.Fatalf("accepted forest holds span %q (id %d) with duration %v", n.Name, n.ID, n.Dur)
				}
				walk(n.Children)
			}
		}
		walk(roots)
	})
}
