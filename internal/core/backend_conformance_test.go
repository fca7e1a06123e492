package core_test

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"repro/internal/arch"
	"repro/internal/asm"
	"repro/internal/cdfg"
	"repro/internal/core"
	"repro/internal/kernels"
	"repro/internal/obs"
	"repro/internal/verify"
)

// conformanceBudget keeps the exact backend's search cheap, so the
// determinism checks stay fast.
const conformanceBudget = 2000

func conformanceOptions(flow core.Flow) core.Options {
	opt := core.DefaultOptions(flow)
	opt.ExactNodeBudget = conformanceBudget
	return opt
}

// backendImage maps the kernel and returns the assembled bitstream image
// — the byte-exact observable the determinism checks compare.
func backendImage(t *testing.T, b core.Backend, g *cdfg.Graph, grid *arch.Grid, opt core.Options) []byte {
	t.Helper()
	m, err := b.Map(context.Background(), g, grid, opt)
	if err != nil {
		t.Fatalf("%s: map: %v", b.Name(), err)
	}
	prog, err := asm.Assemble(m)
	if err != nil {
		t.Fatalf("%s: assemble: %v", b.Name(), err)
	}
	img, err := asm.SaveImage(prog)
	if err != nil {
		t.Fatalf("%s: image: %v", b.Name(), err)
	}
	return img
}

func TestBackendRegistry(t *testing.T) {
	names := map[string]bool{}
	for _, b := range core.Backends() {
		if b.Name() == "" {
			t.Fatalf("backend %T has an empty name", b)
		}
		if names[b.Name()] {
			t.Fatalf("duplicate backend name %q", b.Name())
		}
		names[b.Name()] = true
		got, err := core.BackendByName(b.Name())
		if err != nil || got.Name() != b.Name() {
			t.Fatalf("BackendByName(%q) = %v, %v", b.Name(), got, err)
		}
	}
	if !names["heuristic"] || !names["exact"] {
		t.Fatalf("registry %v misses a required backend", core.BackendNames())
	}
	if core.DefaultBackend().Name() != "heuristic" {
		t.Fatalf("default backend is %q, want heuristic", core.DefaultBackend().Name())
	}
	if _, err := core.BackendByName("wat"); err == nil {
		t.Fatal("BackendByName(wat) succeeded")
	}
	if (core.HeuristicBackend{}).Capabilities().Exhaustive {
		t.Fatal("the heuristic must not claim exhaustiveness")
	}
	if !(core.ExactBackend{}).Capabilities().Exhaustive {
		t.Fatal("the exact backend must claim exhaustiveness")
	}
	// A search cut short by its budget still returns its best mapping.
	k, err := kernels.ByName("FIR")
	if err != nil {
		t.Fatal(err)
	}
	opt := conformanceOptions(core.FlowCAB)
	opt.ExactNodeBudget = 1
	if _, err := (core.ExactBackend{}).Map(context.Background(), k.Build(), arch.MustGrid(arch.HOM64), opt); err != nil {
		t.Fatalf("exact search with a 1-node budget: %v", err)
	}
}

// TestBackendConformance is the shared suite every backend must pass:
// verifier-clean output, run-to-run and arena-reuse determinism
// (including with instrumentation attached), and prompt failure on a
// cancelled context. A future backend added to core.Backends() gets this
// coverage for free.
func TestBackendConformance(t *testing.T) {
	kernelNames := []string{"FIR", "DCFilter"}
	otherKernel := map[string]string{"FIR": "DCFilter", "DCFilter": "FIR"}
	flows := []core.Flow{core.FlowBasic, core.FlowCAB}
	configs := []arch.ConfigName{arch.HOM64, arch.HET1}
	if testing.Short() {
		kernelNames = kernelNames[:1]
		configs = configs[:1]
	}
	for _, b := range core.Backends() {
		b := b
		t.Run(b.Name(), func(t *testing.T) {
			for _, kn := range kernelNames {
				k, err := kernels.ByName(kn)
				if err != nil {
					t.Fatal(err)
				}
				other, err := kernels.ByName(otherKernel[kn])
				if err != nil {
					t.Fatal(err)
				}
				for _, flow := range flows {
					for _, cfg := range configs {
						name := fmt.Sprintf("%s/%s/%s", k.Name, flow, cfg)
						grid := arch.MustGrid(cfg)
						opt := conformanceOptions(flow)

						m, err := b.Map(context.Background(), k.Build(), grid, opt)
						if err != nil {
							t.Fatalf("%s: map: %v", name, err)
						}
						if flow >= core.FlowACMAP { // memory-aware flows must fit
							if ok, tile := m.FitsMemory(); !ok {
								t.Fatalf("%s: memory-aware mapping overflows tile %d", name, tile+1)
							}
						}
						prog, err := asm.Assemble(m)
						if err != nil {
							t.Fatalf("%s: assemble: %v", name, err)
						}
						if vres := verify.Run(&verify.Context{Graph: m.Graph, Mapping: m, Program: prog}); !vres.OK() {
							t.Fatalf("%s: static verification: %v", name, vres.Err())
						}

						base := backendImage(t, b, k.Build(), grid, opt)
						if again := backendImage(t, b, k.Build(), grid, opt); !bytes.Equal(base, again) {
							t.Fatalf("%s: two identical runs produced different bitstreams", name)
						}
						obsOpt := opt
						obsOpt.Obs = obs.NewRecorder(obs.NewRegistry(), nil)
						if inst := backendImage(t, b, k.Build(), grid, obsOpt); !bytes.Equal(base, inst) {
							t.Fatalf("%s: instrumentation changed the bitstream", name)
						}
						// Arena reuse: the free list is LIFO, so mapping another
						// kernel and then this one again on this goroutine runs
						// the second map on the arena the other kernel left.
						backendImage(t, b, other.Build(), grid, opt)
						if got := backendImage(t, b, k.Build(), grid, opt); !bytes.Equal(base, got) {
							t.Fatalf("%s: run after %s diverged from the first bitstream", name, other.Name)
						}
					}
				}
			}
		})
	}
}

// TestBackendCancellation pins the ctx contract: a backend must fail
// promptly on a pre-cancelled context instead of mapping.
func TestBackendCancellation(t *testing.T) {
	k, err := kernels.ByName("FIR")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, b := range core.Backends() {
		m, err := b.Map(ctx, k.Build(), arch.MustGrid(arch.HOM64), conformanceOptions(core.FlowCAB))
		if err == nil {
			t.Errorf("%s: mapped %d blocks under a cancelled ctx", b.Name(), len(m.Blocks))
		}
	}
}
