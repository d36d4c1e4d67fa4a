package serve

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

// readJobFile returns the persisted document of job id under dir.
func readJobFile(t *testing.T, dir, id string) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, "jobs", id+".json"))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestPersistNewestWins pins the order of job-file writes that run outside
// the server mutex: of two snapshots of one job, the one taken later is
// the one on disk, even when its write runs first.
func TestPersistNewestWins(t *testing.T) {
	dir := t.TempDir()
	s, err := New(Config{Workers: -1, StateDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	sub, err := s.Submit(JobSpec{Kind: KindSimulate, Target: "majority", Input: []int64{3, 2}})
	if err != nil {
		t.Fatal(err)
	}

	s.mu.Lock()
	j := s.jobs[sub.ID]
	j.Status = StatusRunning
	older := s.persistJob(j)
	j.Status = StatusDone
	newer := s.persistJob(j)
	want, err := json.Marshal(j)
	s.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	newer()
	older()

	got := readJobFile(t, dir, sub.ID)
	if !bytes.Equal(got, want) {
		t.Fatalf("job file holds the older snapshot:\n got %s\nwant %s", got, want)
	}
}

// TestPersistConcurrentSubmits submits, and cancels some of, jobs from
// several goroutines while two workers run them; after Close no job is
// running (Close leaves the backlog queued) and every job file must hold
// its job's final state byte for byte. Run under -race it
// also checks that the writes outside the mutex share nothing unguarded.
func TestPersistConcurrentSubmits(t *testing.T) {
	dir := t.TempDir()
	s, err := New(Config{Workers: 2, StateDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	const submitters, perSubmitter = 4, 6
	var (
		wg  sync.WaitGroup
		mu  sync.Mutex
		ids []string
	)
	for g := 0; g < submitters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perSubmitter; i++ {
				j, err := s.Submit(JobSpec{Kind: KindSimulate, Target: "majority",
					Input: []int64{6, 4}, Runs: 2, Seed: int64(1 + g*perSubmitter + i)})
				if err != nil {
					t.Error(err)
					return
				}
				if i%3 == 2 {
					s.Cancel(j.ID)
				}
				mu.Lock()
				ids = append(ids, j.ID)
				mu.Unlock()
			}
		}(g)
	}
	wg.Wait()
	s.Close()

	if len(ids) != submitters*perSubmitter {
		t.Fatalf("%d jobs submitted, want %d", len(ids), submitters*perSubmitter)
	}
	for _, id := range ids {
		j := s.Get(id)
		if j.Status == StatusRunning {
			t.Fatalf("job %s is %s after Close", id, j.Status)
		}
		want, err := json.Marshal(j)
		if err != nil {
			t.Fatal(err)
		}
		if got := readJobFile(t, dir, id); !bytes.Equal(got, want) {
			t.Fatalf("job %s: file holds\n%s\nwant the final state\n%s", id, got, want)
		}
	}
}
