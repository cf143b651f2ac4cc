package hypercube

// The hypercube driver fans every per-rank phase out through
// engine.ParallelFor; these tests pin the pool semantics it relies on.

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"

	"repro/internal/engine"
)

func TestParallelForVisitsEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 7, 64, -1} {
		const n = 200
		visits := make([]int32, n)
		err := engine.ParallelFor(workers, n, func(i int) error {
			atomic.AddInt32(&visits[i], 1)
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, v := range visits {
			if v != 1 {
				t.Fatalf("workers=%d: index %d visited %d times", workers, i, v)
			}
		}
	}
}

func TestParallelForEmpty(t *testing.T) {
	called := false
	if err := engine.ParallelFor(4, 0, func(int) error { called = true; return nil }); err != nil {
		t.Fatal(err)
	}
	if called {
		t.Error("body called for n=0")
	}
}

// TestParallelForReturnsLowestIndexError: when several items fail, the
// reported error must be deterministic — the one with the smallest
// index — regardless of worker scheduling.
func TestParallelForReturnsLowestIndexError(t *testing.T) {
	for _, workers := range []int{1, 4, runtime.GOMAXPROCS(0)} {
		for trial := 0; trial < 20; trial++ {
			err := engine.ParallelFor(workers, 50, func(i int) error {
				if i >= 7 && i%3 == 1 {
					return fmt.Errorf("item %d failed", i)
				}
				return nil
			})
			if err == nil {
				t.Fatalf("workers=%d: error swallowed", workers)
			}
			if got := err.Error(); got != "item 7 failed" {
				t.Fatalf("workers=%d: got %q, want the lowest-index error", workers, got)
			}
		}
	}
}

// TestParallelForStopsIssuingAfterError: after a failure, the pool must
// not start work on items it has not yet claimed (fail-fast), though
// items already in flight may finish.
func TestParallelForStopsIssuingAfterError(t *testing.T) {
	const n = 10000
	var started int32
	boom := errors.New("boom")
	err := engine.ParallelFor(2, n, func(i int) error {
		atomic.AddInt32(&started, 1)
		if i == 0 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if s := atomic.LoadInt32(&started); int(s) == n {
		t.Error("pool ran every item despite an early failure")
	}
}
