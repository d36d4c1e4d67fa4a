package explore

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/multiset"
	"repro/internal/obs"
	"repro/internal/protocol"
)

// spillFreeWalkSize returns the free-walk population size and a state limit
// below its reachable count. The full instance (m = 25, C(30,5) = 142506
// states) runs without the race detector; under it the differential drops to
// m = 15 (C(20,5) = 15504 states) to stay inside the CI budget.
func spillFreeWalkSize() (m int64, limit int) {
	if raceEnabled {
		return 15, 8_000
	}
	return 25, 50_000
}

// spillInitial is freeWalkInitial for plain tests.
func spillInitial(tb testing.TB, p *protocol.Protocol, m int64) *multiset.Multiset {
	tb.Helper()
	counts := make([]int64, len(p.States))
	counts[0] = m
	c, err := p.InitialConfig(counts...)
	if err != nil {
		tb.Fatal(err)
	}
	return c
}

// TestSpillDifferentialFreeWalk is the out-of-core half of the differential
// harness: the free-walk instance explored by the sequential reference, the
// all-RAM engine and the spilled engine (a budget small enough that the key
// log, which every BFS level is read from, overflows to disk) must produce
// bit-identical Results — including witness keys — at every worker count.
func TestSpillDifferentialFreeWalk(t *testing.T) {
	m, _ := spillFreeWalkSize()
	p := freeWalkProtocol(t, 6)
	sys := NewProtocolSystem(p)
	c := spillInitial(t, p, m)
	// Small enough that the key log's share sits far below the instance's
	// total key bytes.
	const budget = int64(8 << 10)

	opts := Options{MaxStates: 1_000_000}
	seq, err := Explore[*multiset.Multiset](sys, []*multiset.Multiset{c}, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workerCounts {
		ram, err := ExploreParallel[*multiset.Multiset](sys, []*multiset.Multiset{c},
			Options{MaxStates: 1_000_000, Workers: w})
		if err != nil {
			t.Fatalf("workers=%d ram: %v", w, err)
		}
		assertIdentical(t, seq, ram, fmt.Sprintf("ram workers=%d", w))

		met := obs.Enable()
		spilled, err := ExploreParallel[*multiset.Multiset](sys, []*multiset.Multiset{c},
			Options{MaxStates: 1_000_000, Workers: w, MemBudget: budget, SpillDir: t.TempDir()})
		em := met.Explore()
		obs.Disable()
		if err != nil {
			t.Fatalf("workers=%d spilled: %v", w, err)
		}
		assertIdentical(t, seq, spilled, fmt.Sprintf("spilled workers=%d", w))
		if em.SpillSegments.Load() == 0 || em.SpillBytes.Load() == 0 {
			t.Fatalf("workers=%d: budget %d did not spill (segments %d, bytes %d)",
				w, budget, em.SpillSegments.Load(), em.SpillBytes.Load())
		}
		if em.SpillReadBytes.Load() == 0 {
			t.Fatalf("workers=%d: spilled run read nothing back", w)
		}
	}
}

// TestSpillStateLimitIdentical pins that ErrStateLimit fires at the same
// canonical point — with the same error string — whether or not storage
// spilled, at every worker count.
func TestSpillStateLimitIdentical(t *testing.T) {
	m, limit := spillFreeWalkSize()
	p := freeWalkProtocol(t, 6)
	sys := NewProtocolSystem(p)
	c := spillInitial(t, p, m)

	_, seqErr := Explore[*multiset.Multiset](sys, []*multiset.Multiset{c}, Options{MaxStates: limit})
	if !errors.Is(seqErr, ErrStateLimit) {
		t.Fatalf("sequential err = %v", seqErr)
	}
	for _, w := range workerCounts {
		_, parErr := ExploreParallel[*multiset.Multiset](sys, []*multiset.Multiset{c},
			Options{MaxStates: limit, Workers: w, MemBudget: 64 << 10, SpillDir: t.TempDir()})
		if !errors.Is(parErr, ErrStateLimit) {
			t.Fatalf("workers=%d err = %v, want ErrStateLimit", w, parErr)
		}
		if parErr.Error() != seqErr.Error() {
			t.Fatalf("workers=%d error %q, sequential %q", w, parErr, seqErr)
		}
	}
}

// spillWalk is a synthetic unbounded codec system over uint64 states with
// fixed 8-byte big-endian keys: successors s+1 and 5s+3 modulo n. The doubled
// successor makes BFS levels grow geometrically (frontiers wide enough to
// spill), and with n modestly above the state limit the walk wraps, so late
// levels rediscover spilled states and exercise the batched deferred-lookup
// read path at scale.
type spillWalk struct{ n uint64 }

func (w spillWalk) Key(s uint64) string {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], s)
	return string(b[:])
}

func (w spillWalk) AppendKey(dst []byte, s uint64) []byte {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], s)
	return append(dst, b[:]...)
}

func (w spillWalk) DecodeKey(prev uint64, key []byte) (uint64, error) {
	if len(key) != 8 {
		return 0, fmt.Errorf("spillWalk: key has %d bytes, want 8", len(key))
	}
	return binary.BigEndian.Uint64(key), nil
}

func (w spillWalk) AppendSuccessorKeys(s uint64, dst []byte, ends []int) ([]byte, []int) {
	for _, t := range []uint64{(s + 1) % w.n, (s*5 + 3) % w.n} {
		dst = w.AppendKey(dst, t)
		ends = append(ends, len(dst))
	}
	return dst, ends
}

func (w spillWalk) Output(s uint64) protocol.Output { return protocol.OutputTrue }

var _ System[uint64] = spillWalk{}

// TestSpillGoldenTenMillion is the acceptance run of the out-of-core tier: a
// 10⁷-state exploration under a 32 MB budget that the all-RAM engine provably
// exceeds (its own resident high-water is asserted to be well beyond the
// budget). Both runs must refuse at the identical canonical state with the
// identical ErrStateLimit, the spilled run must stay inside the budget while
// actually writing and reading spill files, and its throughput must stay
// within 3x of the all-RAM run.
func TestSpillGoldenTenMillion(t *testing.T) {
	if raceEnabled {
		t.Skip("golden 10⁷-state run skipped under the race detector")
	}
	if testing.Short() {
		t.Skip("golden 10⁷-state run skipped in -short mode")
	}
	const goldenStates = 10_000_000
	const budget = int64(32 << 20)
	sys := spillWalk{n: 12_000_003}
	opts := Options{MaxStates: goldenStates, Workers: 4}

	run := func(opts Options) (error, *obs.ExploreMetrics, time.Duration) {
		met := obs.Enable()
		defer obs.Disable()
		t0 := time.Now()
		_, err := ExploreParallel[uint64](sys, []uint64{0}, opts)
		return err, met.Explore(), time.Since(t0)
	}

	ramErr, ramMet, ramDur := run(opts)
	if !errors.Is(ramErr, ErrStateLimit) {
		t.Fatalf("all-RAM err = %v, want ErrStateLimit", ramErr)
	}
	if ramMet.States.Load() != goldenStates {
		t.Fatalf("all-RAM interned %d states, want %d", ramMet.States.Load(), goldenStates)
	}
	if ramMet.SpillResidentPeak.Load() <= 2*budget {
		t.Fatalf("all-RAM resident peak %d does not exceed the budget %d — instance too small to prove spilling matters",
			ramMet.SpillResidentPeak.Load(), budget)
	}
	if ramMet.SpillBytes.Load() != 0 {
		t.Fatalf("all-RAM run spilled %d bytes", ramMet.SpillBytes.Load())
	}

	spillOpts := opts
	spillOpts.MemBudget = budget
	spillOpts.SpillDir = t.TempDir()
	spErr, spMet, spDur := run(spillOpts)
	if !errors.Is(spErr, ErrStateLimit) {
		t.Fatalf("spilled err = %v, want ErrStateLimit", spErr)
	}
	if spErr.Error() != ramErr.Error() {
		t.Fatalf("spilled error %q, all-RAM %q", spErr, ramErr)
	}
	if spMet.States.Load() != goldenStates {
		t.Fatalf("spilled interned %d states, want %d (identical refusal point)", spMet.States.Load(), goldenStates)
	}
	if spMet.SpillResidentPeak.Load() > budget {
		t.Fatalf("spilled resident peak %d exceeds budget %d", spMet.SpillResidentPeak.Load(), budget)
	}
	if spMet.SpillSegments.Load() == 0 || spMet.SpillBytes.Load() == 0 {
		t.Fatalf("spilled run did not spill: segments %d, bytes %d",
			spMet.SpillSegments.Load(), spMet.SpillBytes.Load())
	}
	if spMet.SpillReadBytes.Load() == 0 {
		t.Fatal("spilled run read nothing back from disk")
	}
	if ratio := spDur.Seconds() / ramDur.Seconds(); ratio > 3.0 {
		t.Fatalf("spilled run %.1fx slower than all-RAM (spilled %v, ram %v), want ≤ 3x", ratio, spDur, ramDur)
	}
	t.Logf("all-RAM: %v (resident peak %d MB); spilled: %v (resident peak %d MB, %d segments, %d MB written, %d MB read back)",
		ramDur.Round(time.Millisecond), ramMet.SpillResidentPeak.Load()>>20,
		spDur.Round(time.Millisecond), spMet.SpillResidentPeak.Load()>>20,
		spMet.SpillSegments.Load(), spMet.SpillBytes.Load()>>20, spMet.SpillReadBytes.Load()>>20)
}

// cancellingWalk wraps spillWalk and cancels a context after a fixed number
// of AppendSuccessorKeys calls — from inside the expansion pass, the worst
// possible moment for spill-file cleanup.
type cancellingWalk struct {
	spillWalk
	cancel context.CancelFunc
	after  int64
	calls  *atomic.Int64
}

func (w cancellingWalk) AppendSuccessorKeys(s uint64, dst []byte, ends []int) ([]byte, []int) {
	if w.calls.Add(1) == w.after {
		w.cancel()
	}
	return w.spillWalk.AppendSuccessorKeys(s, dst, ends)
}

// TestSpillCancellationNoOrphans cancels an exploration while it is actively
// spilling and verifies the contract of the per-run spill directory: the
// engine returns the context's error and removes every segment file it
// created, leaving the caller's SpillDir empty.
func TestSpillCancellationNoOrphans(t *testing.T) {
	dir := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var calls atomic.Int64
	sys := cancellingWalk{spillWalk: spillWalk{n: 1 << 40}, cancel: cancel, after: 100_000, calls: &calls}

	met := obs.Enable()
	_, err := ExploreContext[uint64](ctx, sys, []uint64{0},
		Options{MaxStates: 1 << 30, Workers: 2, MemBudget: 256 << 10, SpillDir: dir})
	em := met.Explore()
	obs.Disable()

	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if em.Cancellations.Load() != 1 {
		t.Fatalf("Cancellations = %d, want 1", em.Cancellations.Load())
	}
	// The run must actually have been mid-spill when cancelled, or the test
	// proves nothing.
	if em.SpillSegments.Load() == 0 {
		t.Fatalf("exploration never spilled before cancellation (states %d)", em.States.Load())
	}
	entries, rdErr := os.ReadDir(dir)
	if rdErr != nil {
		t.Fatal(rdErr)
	}
	if len(entries) != 0 {
		names := make([]string, len(entries))
		for i, e := range entries {
			names[i] = e.Name()
		}
		t.Fatalf("cancelled exploration left %d orphaned entries in spill dir: %v", len(entries), names)
	}
}

// BenchmarkExploreSpill is the recorded out-of-core benchmark: the free-walk
// acceptance instance explored all-RAM and under a budget that spills the
// key log, reporting states/sec and the key log's resident bytes per state
// so the budgeted run's memory/throughput trade-off lands in
// BENCH_simulate.json.
func BenchmarkExploreSpill(b *testing.B) {
	const k, m = 6, 25
	const wantStates = 142506
	p := freeWalkProtocol(b, k)
	sys := NewProtocolSystem(p)
	c := freeWalkInitial(b, p, m)

	for _, bc := range []struct {
		name   string
		budget int64
	}{{"ram", 0}, {"budget256k", 256 << 10}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			var peak int64
			for i := 0; i < b.N; i++ {
				met := obs.Enable()
				res, err := ExploreParallel[*multiset.Multiset](sys, []*multiset.Multiset{c},
					Options{MaxStates: 1_000_000, Workers: 4, MemBudget: bc.budget, SpillDir: b.TempDir()})
				peak = met.Explore().SpillResidentPeak.Load()
				obs.Disable()
				if err != nil {
					b.Fatal(err)
				}
				if res.NumStates != wantStates {
					b.Fatalf("NumStates = %d, want %d", res.NumStates, wantStates)
				}
			}
			b.ReportMetric(float64(wantStates)*float64(b.N)/b.Elapsed().Seconds(), "states/s")
			b.ReportMetric(float64(peak)/float64(wantStates), "resident-B/state")
		})
	}
}

// errInjected is the failure failingDecode injects.
var errInjected = errors.New("injected decode failure")

// failingDecode is spillWalk whose DecodeKey fails on its failAt-th call.
// The engine decodes every state once to expand it and, in the analysis,
// once more per bottom-SCC member, so failAt picks the phase that fails.
type failingDecode struct {
	spillWalk
	failAt int64
	calls  *atomic.Int64
}

func (w failingDecode) DecodeKey(prev uint64, key []byte) (uint64, error) {
	if w.calls.Add(1) == w.failAt {
		return 0, errInjected
	}
	return w.spillWalk.DecodeKey(prev, key)
}

// TestExploreDecodeErrors: DecodeKey is the engine's only way of reading a
// state back from its key, so its error must come out of ExploreParallel
// whether it happens while a level is expanded or while the analysis
// streams bottom-SCC members back from the key log — at one and two
// workers, all in RAM and under a budget that spills. A failed run must
// leave SpillDir empty.
func TestExploreDecodeErrors(t *testing.T) {
	// spillWalk{n} is one bottom SCC of n states: n expansion decodes, then
	// n analysis decodes.
	const n = 20_000
	for _, phase := range []struct {
		name   string
		failAt int64
	}{{"expansion", n / 2}, {"analysis", n + n/2}} {
		for _, w := range []int{1, 2} {
			for _, budget := range []int64{0, 16 << 10} {
				where := fmt.Sprintf("%s workers=%d budget=%d", phase.name, w, budget)
				dir := t.TempDir()
				var calls atomic.Int64
				sys := failingDecode{spillWalk: spillWalk{n: n}, failAt: phase.failAt, calls: &calls}
				met := obs.Enable()
				_, err := ExploreParallel[uint64](sys, []uint64{0},
					Options{Workers: w, MemBudget: budget, SpillDir: dir})
				em := met.Explore()
				obs.Disable()
				if !errors.Is(err, errInjected) {
					t.Fatalf("%s: err = %v, want the injected decode failure", where, err)
				}
				if budget > 0 && em.SpillSegments.Load() == 0 {
					t.Fatalf("%s: spilled no key-log segment before failing", where)
				}
				entries, rdErr := os.ReadDir(dir)
				if rdErr != nil {
					t.Fatal(rdErr)
				}
				if len(entries) != 0 {
					t.Fatalf("%s: failed exploration left %d entries in the spill dir", where, len(entries))
				}
			}
		}
	}
}

// TestSpilledReadErrorsFail: a key record that cannot be read fails the
// call that needed it, and is never taken for a fingerprint mismatch —
// that would let intern append a present key again under a new id. Every
// spilled segment's mapping is dropped and its file closed, so each read of
// a spilled record fails: the commit pass's intern, the expansion pass's
// resumed probe and a log cursor must all return the read error.
func TestSpilledReadErrorsFail(t *testing.T) {
	const n = 200
	in := newInterner(1, t.TempDir(), nil)
	defer in.close()
	for i := range n {
		key := binary.BigEndian.AppendUint64(nil, uint64(i))
		if _, _, err := in.intern(hashKey(key), key, i, n+1); err != nil {
			t.Fatal(err)
		}
		if i%10 == 9 {
			if err := in.log.seal(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if in.log.nspilled != len(in.log.segs) || len(in.log.tail) != 0 {
		t.Fatalf("%d of %d segments spilled, %d tail bytes: want every key spilled",
			in.log.nspilled, len(in.log.segs), len(in.log.tail))
	}
	dropMappings(in.log)
	for _, sg := range in.log.segs {
		sg.f.Close()
	}

	first := binary.BigEndian.AppendUint64(nil, 0)
	h := hashKey(first)
	if id, fresh, err := in.intern(h, first, n, n+1); !errors.Is(err, os.ErrClosed) {
		t.Fatalf("re-intern of a spilled key: (%d, %v, %v), want the read error", id, fresh, err)
	}
	var scratch []byte
	mask := uint32(len(in.shards[shardIndex(h)].entries) - 1)
	if id, ok, err := in.resumeLookup(h, first, (fingerprint(h)-1)&mask, &scratch); !errors.Is(err, os.ErrClosed) {
		t.Fatalf("resumed lookup of a spilled key: (%d, %v, %v), want the read error", id, ok, err)
	}
	cur := in.log.cursorAt(1)
	if key, err := cur.next(); !errors.Is(err, os.ErrClosed) {
		t.Fatalf("cursor over a spilled segment: (%x, %v), want the read error", key, err)
	}
}
