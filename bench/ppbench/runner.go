package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/obs"
)

// op is one timed unit of work. run does the work and checks its output;
// a non-nil error counts the op as failed.
type op struct {
	kind string
	run  func(c *opCtx) error
}

// instance is a workload after set-up: fixtures built, ready to run passes.
type instance interface {
	// pass returns pass p's ops. Every pass holds the same ops; the seed
	// and p only order them and seed their randomness.
	pass(p int) []op
	close() error
}

// workload is one set of inputs the benchmark runs.
type workload struct {
	name string
	why  string
	// clients is the number of closed-loop clients that run a pass's ops:
	// each takes the next op only after its previous one completed.
	clients int
	// passSeconds is the wall time of one pass on the reference box (two
	// CPUs). A run makes -seconds/passSeconds passes, so it measures about
	// -seconds there, and every commit measured with the same flags does
	// the same work.
	passSeconds float64
	setup       func(cfg config) (instance, error)
}

var workloads = []workload{verifyWorkload, buildWorkload, simulateWorkload, serveWorkload}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// config is one run's settings.
type config struct {
	seed    int64
	seconds float64
	smoke   bool
	outDir  string
}

// minOps is the fewest ops a timed phase runs: enough for p90 to have ten
// samples beyond it.
const minOps = 100

// setupRepeats is how many times a run builds its workload from scratch;
// setup_s is the median.
const setupRepeats = 3

// passCount is how many passes of opsPerPass ops a run of w makes.
func passCount(w workload, cfg config, opsPerPass int) int {
	n := int(math.Ceil(cfg.seconds / w.passSeconds))
	if least := (minOps + opsPerPass - 1) / opsPerPass; n < least {
		n = least
	}
	return n
}

// passStat is what one pass measured.
type passStat struct {
	ops      int
	wall     time.Duration
	cpu      time.Duration
	alloc    uint64
	gcCycles uint32
	gcPause  uint64
	peakRSS  int64 // KiB
}

// phase is what one timed run of passes measured.
type phase struct {
	lat      []float64 // ms per op, in completion order
	kinds    []string  // the kind of each op in lat
	failures []string
	passes   []passStat
}

// runPhase runs n passes. Every pass starts from a collected heap whose free
// pages went back to the OS and from a fresh peak-RSS mark, so passes start
// alike and each reports its own peak; the time this takes between passes
// is not measured.
func runPhase(w workload, inst instance, n int, tr *tracer) (*phase, error) {
	ph := &phase{}
	for p := 0; p < n; p++ {
		ops := inst.pass(p)
		debug.FreeOSMemory()
		if err := resetPeakRSS(); err != nil {
			return nil, err
		}
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		cpu0 := cpuTime()
		t0 := time.Now()
		runOps(ops, w.clients, tr, len(ph.lat), ph)
		wall := time.Since(t0)
		cpu := cpuTime() - cpu0
		runtime.ReadMemStats(&ms1)
		peak, err := peakRSS()
		if err != nil {
			return nil, err
		}
		ph.passes = append(ph.passes, passStat{
			ops: len(ops), wall: wall, cpu: cpu,
			alloc:    ms1.TotalAlloc - ms0.TotalAlloc,
			gcCycles: ms1.NumGC - ms0.NumGC,
			gcPause:  ms1.PauseTotalNs - ms0.PauseTotalNs,
			peakRSS:  peak,
		})
	}
	return ph, nil
}

// perPass returns the median of f over the passes.
func (ph *phase) perPass(f func(passStat) float64) measured {
	xs := make([]float64, len(ph.passes))
	for i, s := range ph.passes {
		xs[i] = f(s)
	}
	return measured{median(xs), len(xs)}
}

func opsPerSec(s passStat) float64 { return float64(s.ops) / s.wall.Seconds() }

// runOps runs ops on `clients` closed-loop goroutines and waits for all of
// them. Op ids continue from base.
func runOps(ops []op, clients int, tr *tracer, base int, ph *phase) {
	var mu sync.Mutex
	var next atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(ops) {
					return
				}
				o := ops[i]
				c := &opCtx{tr: tr, op: base + i}
				c.span = tr.begin(c.op, -1, o.kind)
				t := time.Now()
				err := o.run(c)
				d := time.Since(t)
				tr.end(c.span)
				mu.Lock()
				ph.lat = append(ph.lat, float64(d.Nanoseconds())/1e6)
				ph.kinds = append(ph.kinds, o.kind)
				if err != nil {
					ph.failures = append(ph.failures, fmt.Sprintf("%s: %v", o.kind, err))
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
}

// setUp builds the workload and runs one untimed warm-up op of every kind,
// so caches fill and lazy set-up finishes before timing. It returns the
// instance and how long that took, starting from a collected heap.
func setUp(w workload, cfg config, repeat int) (instance, time.Duration, error) {
	debug.FreeOSMemory()
	t0 := time.Now()
	inst, err := w.setup(cfg)
	if err != nil {
		return nil, 0, err
	}
	seen := map[string]bool{}
	var warm []op
	for _, o := range inst.pass(-1 - repeat) {
		if !seen[o.kind] {
			seen[o.kind] = true
			warm = append(warm, o)
		}
	}
	ph := &phase{}
	runOps(warm, 1, nil, 0, ph)
	if len(ph.failures) > 0 {
		inst.close()
		return nil, 0, fmt.Errorf("warm-up: %s", ph.failures[0])
	}
	return inst, time.Since(t0), nil
}

// outcome is everything one workload run produced.
type outcome struct {
	setups   []float64 // seconds
	base     *phase    // untraced timed phase
	traced   *phase    // traced repeat; nil without -trace
	tr       *tracer
	met      *obs.Metrics
	failures []string
}

// runWorkload sets the workload up setupRepeats times, keeps the last
// instance, measures it untraced and, with trace set, once more traced with
// the same passes.
func runWorkload(w workload, cfg config, trace bool) (*outcome, error) {
	out := &outcome{}
	var inst instance
	for i := 0; i < setupRepeats; i++ {
		next, d, err := setUp(w, cfg, i)
		if err != nil {
			if inst != nil {
				inst.close()
			}
			return nil, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		if inst != nil {
			if err := inst.close(); err != nil {
				next.close()
				return nil, err
			}
		}
		inst = next
		out.setups = append(out.setups, d.Seconds())
	}
	err := out.measure(w, inst, cfg, trace)
	if cerr := inst.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	return out, nil
}

func (out *outcome) measure(w workload, inst instance, cfg config, trace bool) error {
	n := passCount(w, cfg, len(inst.pass(0)))
	var err error
	if out.base, err = runPhase(w, inst, n, nil); err != nil {
		return err
	}
	out.failures = append(out.failures, out.base.failures...)
	if !trace {
		return nil
	}
	out.met = obs.Enable()
	out.tr = newTracer()
	out.traced, err = runPhase(w, inst, n, out.tr)
	obs.Disable()
	if err != nil {
		return err
	}
	out.failures = append(out.failures, out.traced.failures...)
	return nil
}

// cpuTime returns this process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// resetPeakRSS restarts the kernel's peak resident set size (VmHWM) from the
// current resident set (Linux 4.0 and later).
func resetPeakRSS() error {
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("reset peak RSS: %w", err)
	}
	return nil
}

// peakRSS returns the peak resident set size since the last resetPeakRSS, in
// KiB.
func peakRSS() (int64, error) {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range bytes.Split(status, []byte("\n")) {
		if v, ok := bytes.CutPrefix(line, []byte("VmHWM:")); ok {
			v = bytes.TrimSpace(bytes.TrimSuffix(bytes.TrimSpace(v), []byte("kB")))
			return strconv.ParseInt(string(v), 10, 64)
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}
