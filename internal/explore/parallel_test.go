package explore

import (
	"strings"
	"testing"
	"time"
)

func TestCheckDecidesParallelMatchesSequential(t *testing.T) {
	p := buildMajority(t)
	pred := func(in []int64) bool { return in[0] >= in[1] }
	if err := CheckDecidesParallel(p, pred, 1, 7, 4, Options{}); err != nil {
		t.Fatalf("parallel verification failed: %v", err)
	}
	if err := CheckDecidesParallel(p, pred, 1, 7, 1, Options{}); err != nil {
		t.Fatalf("single-worker verification failed: %v", err)
	}
}

func TestCheckDecidesParallelReportsFailures(t *testing.T) {
	p := buildMajority(t)
	// An impossible predicate: every size must fail; the error mentions a
	// size and the protocol.
	wrong := func(in []int64) bool { return false }
	err := CheckDecidesParallel(p, wrong, 1, 5, 3, Options{})
	if err == nil {
		t.Fatal("parallel checker passed an impossible predicate")
	}
	if !strings.HasPrefix(err.Error(), "size 1: ") || !strings.Contains(err.Error(), "majority") {
		t.Fatalf("err = %v, want size 1's failure", err)
	}
}

// TestCheckDecidesParallelFirstFailure: sizes 3 and 4 are wrong, and size 3
// is slow to fail, so size 4 fails first whenever they run concurrently.
// Every worker count must still report size 3.
func TestCheckDecidesParallelFirstFailure(t *testing.T) {
	p := buildMajority(t)
	pred := func(in []int64) bool {
		right := in[0] >= in[1]
		switch in[0] + in[1] {
		case 3:
			time.Sleep(50 * time.Millisecond)
			return !right
		case 4:
			return !right
		}
		return right
	}
	for _, workers := range []int{1, 2, 4} {
		err := CheckDecidesParallel(p, pred, 1, 6, workers, Options{})
		if err == nil || !strings.HasPrefix(err.Error(), "size 3: ") {
			t.Fatalf("workers=%d: err = %v, want size 3's failure", workers, err)
		}
	}
}

func TestCheckDecidesParallelRejectsZeroPopulation(t *testing.T) {
	p := buildMajority(t)
	if err := CheckDecidesParallel(p, func([]int64) bool { return true }, 0, 3, 2, Options{}); err == nil {
		t.Fatal("accepted minAgents = 0")
	}
}
