package fluid

import "testing"

// BenchmarkFluidStepN measures one preferred-size chunk (τ = 1/16) of
// mean-field flow on the epidemic interior, at populations spanning the
// collision kernel's bulk boundary (m = 10⁹ is still tau-leapable,
// m = 10¹² is fluid-only). ns/interaction-equiv is wall time over the
// number of uniform random-pair interactions the chunk represents — the
// cost is population-independent (a fixed number of RK stages), so it
// falls ∝ 1/m.
func BenchmarkFluidStepN(b *testing.B) {
	p := epidemic(b)
	for _, bc := range []struct {
		name string
		m    int64
	}{{"m=1e9", 1_000_000_000}, {"m=1e12", 1_000_000_000_000}} {
		b.Run("ode/"+bc.name, func(b *testing.B) {
			ig := NewIntegrator(p)
			c := config(b, p, map[string]int64{"I": bc.m / 4, "S": 3 * bc.m / 4})
			chunk := ig.PreferredChunk(bc.m)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ig.Advance(c, chunk, 0)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(float64(b.N)*float64(chunk)),
				"ns/interaction-equiv")
		})
	}
}
