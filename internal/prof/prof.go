// Package prof wires the standard runtime/pprof file profiles into the
// CLIs (through telemetry.Flags' -cpuprofile/-memprofile) so mapper,
// simulator and evaluation hot paths can be profiled in situ: the
// alloc-gated perf harness points at exactly the code paths these
// binaries exercise.
package prof

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"repro/internal/obs"
)

// Start begins CPU profiling when cpuPath is non-empty and returns a stop
// function that finishes the CPU profile and, when memPath is non-empty,
// writes an allocation (heap) profile. The stop function must run before
// the process exits — including on error and panic paths — or the
// profiles are truncated; it is idempotent, so callers both defer it (the
// panic safety net) and invoke it explicitly to collect its error. Empty
// paths make Start and its stop function no-ops.
//
// When r is a live recorder, stopping emits one instant event per profile
// actually written, carrying the output path, so a run's timeline records
// where its profiles landed.
func Start(cpuPath, memPath string, r *obs.Recorder) (func() error, error) {
	var cpuFile *os.File
	if cpuPath != "" {
		f, err := os.Create(cpuPath)
		if err != nil {
			return nil, fmt.Errorf("prof: %w", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, fmt.Errorf("prof: %w", err)
		}
		cpuFile = f
	}
	stopped := false
	stop := func() error {
		if stopped {
			return nil
		}
		stopped = true
		var first error
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				first = fmt.Errorf("prof: %w", err)
			} else {
				r.Emit("prof.cpu_profile", "prof", 0, map[string]any{"path": cpuPath})
			}
		}
		if memPath != "" {
			f, err := os.Create(memPath)
			if err != nil {
				if first == nil {
					first = fmt.Errorf("prof: %w", err)
				}
				return first
			}
			// An explicit GC settles the heap statistics so the profile
			// reflects live allocations, matching `go test -memprofile`.
			runtime.GC()
			werr := pprof.WriteHeapProfile(f)
			if werr != nil && first == nil {
				first = fmt.Errorf("prof: %w", werr)
			}
			if err := f.Close(); err != nil && first == nil {
				first = fmt.Errorf("prof: %w", err)
			}
			if werr == nil {
				r.Emit("prof.heap_profile", "prof", 0, map[string]any{"path": memPath})
			}
		}
		return first
	}
	return stop, nil
}
