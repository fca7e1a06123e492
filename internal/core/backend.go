package core

import (
	"context"
	"fmt"

	"repro/internal/arch"
	"repro/internal/cdfg"
)

// Capabilities describes what a mapping backend guarantees, so callers
// (the portfolio, the differential oracle, the CLIs) can schedule and
// compare backends without knowing their implementations.
type Capabilities struct {
	// Exhaustive marks a backend that searches its whole move space (up to
	// an explicit budget) rather than sampling it. Exhaustive backends run
	// once per portfolio — extra seeds cannot improve them the way they
	// improve the stochastic heuristic.
	Exhaustive bool
}

// Backend is one mapper implementation: a strategy for producing a legal
// Mapping of a CDFG onto a grid. All backends honor the same Options
// (flow, traversal, memory constraints) and return mappings that pass the
// same post-conditions as Map — the verifier accepts any backend's output
// or the backend errors out.
type Backend interface {
	// Name is the stable identifier used by the -backend CLI flag, the
	// portfolio reports and the oracle's .repro metadata.
	Name() string
	Capabilities() Capabilities
	// Map maps the graph onto the grid. A nil ctx means background; a
	// cancelled ctx makes the backend return promptly (with its best
	// mapping so far when it already holds one, an error otherwise).
	Map(ctx context.Context, g *cdfg.Graph, grid *arch.Grid, opt Options) (*Mapping, error)
}

// HeuristicBackend is the paper's mapper — the stochastic beam search of
// Map — behind the Backend interface.
type HeuristicBackend struct{}

// Name implements Backend.
func (HeuristicBackend) Name() string { return "heuristic" }

// Capabilities implements Backend.
func (HeuristicBackend) Capabilities() Capabilities { return Capabilities{} }

// Map implements Backend by delegating to the package-level Map with the
// context threaded into the options.
func (HeuristicBackend) Map(ctx context.Context, g *cdfg.Graph, grid *arch.Grid, opt Options) (*Mapping, error) {
	if ctx != nil {
		opt.ctx = ctx
	}
	if opt.Obs.Enabled() {
		opt.Obs.Counter("core.backend.heuristic.maps").Inc()
	}
	return Map(g, grid, opt)
}

// DefaultBackend returns the backend used when none is named: the
// heuristic, which every existing entry point wraps.
func DefaultBackend() Backend { return HeuristicBackend{} }

// Backends lists every registered backend in a stable order (the
// heuristic first, as the reference implementation).
func Backends() []Backend {
	return []Backend{HeuristicBackend{}, ExactBackend{}}
}

// BackendNames lists the registered backend names in Backends order.
func BackendNames() []string {
	bs := Backends()
	names := make([]string, len(bs))
	for i, b := range bs {
		names[i] = b.Name()
	}
	return names
}

// BackendByName resolves a backend by its Name.
func BackendByName(name string) (Backend, error) {
	for _, b := range Backends() {
		if b.Name() == name {
			return b, nil
		}
	}
	return nil, fmt.Errorf("core: unknown backend %q (have %v)", name, BackendNames())
}
