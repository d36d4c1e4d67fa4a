//go:build race

package simulate

// raceEnabled reports whether the race detector is compiled in. The ladder's
// KS suite skips under it: 1,800 convergence measurements at m = 10⁵⁺ are
// statistics, not concurrency, and the detector multiplies their cost.
// TestMeasureConvergenceKernelReproducible keeps the hybrid under a worker
// pool in the race run.
const raceEnabled = true
