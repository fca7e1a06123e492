package sim_test

import (
	"testing"

	"repro/internal/kernels"
	"repro/internal/sim"
)

// BenchmarkSimRunScalar times the tile-major reference interpreter on
// the kernels' CAB mappings on HOM64, the cells the root package's
// BenchmarkSimRun times the engine on: the baseline the engine's
// throughput is quoted against.
func BenchmarkSimRunScalar(b *testing.B) {
	for _, k := range kernels.All() {
		s, err := sim.New(buildProgram(b, k.Build()))
		if err != nil {
			b.Fatal(err)
		}
		b.Run(k.Name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := s.RunScalar(k.Init()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
