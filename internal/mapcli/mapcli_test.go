package mapcli

import (
	"flag"
	"testing"

	"repro/internal/cdfg"
	"repro/internal/core"
)

// TestRegisterResolve drives the shared flags through a FlagSet: the
// parsed values must reach the mapper options, -exact-budget included.
func TestRegisterResolve(t *testing.T) {
	var f Flags
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	f.Register(fs)
	err := fs.Parse([]string{"-kernel", "DCFilter", "-config", "het2", "-flow", "basic",
		"-backend", "race", "-seed", "7", "-exact-budget", "1500"})
	if err != nil {
		t.Fatal(err)
	}
	j, err := f.Resolve(nil)
	if err != nil {
		t.Fatal(err)
	}
	if j.Kernel.Name != "DCFilter" || j.Grid.Name != "HET2" {
		t.Errorf("resolved %s on %s", j.Kernel.Name, j.Grid.Name)
	}
	if j.Opt.Flow != core.FlowBasic || j.Opt.Traversal != cdfg.TraverseForward {
		t.Errorf("flow %s, traversal %s", j.Opt.Flow, j.Opt.Traversal)
	}
	if j.Opt.Seed != 7 || j.Opt.ExactNodeBudget != 1500 {
		t.Errorf("seed %d, exact budget %d", j.Opt.Seed, j.Opt.ExactNodeBudget)
	}
	if len(j.Backends) != len(core.Backends()) || !j.portfolio() {
		t.Errorf("race resolved to %d backends", len(j.Backends))
	}
}

func TestParseRejectsUnknown(t *testing.T) {
	for _, s := range []string{"basic", "acmap", "ecmap", "cab", "full", "aware", "CAB"} {
		if _, err := ParseFlow(s); err != nil {
			t.Errorf("ParseFlow(%q): %v", s, err)
		}
	}
	if _, err := ParseFlow("quantum"); err == nil {
		t.Error("ParseFlow accepted an unknown flow")
	}
	if _, err := ParseBackends("wat"); err == nil {
		t.Error("ParseBackends accepted an unknown backend")
	}
	if bs, err := ParseBackends(""); err != nil || len(bs) != 1 || bs[0].Name() != core.DefaultBackend().Name() {
		t.Errorf("ParseBackends(\"\") = %v, %v; want the default backend", bs, err)
	}
}
