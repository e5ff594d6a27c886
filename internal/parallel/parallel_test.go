package parallel

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

func TestForEachRunsEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 8, 0} {
		const n = 100
		counts := make([]int32, n)
		err := ForEachCtx(context.Background(), workers, n, func(i int) error {
			atomic.AddInt32(&counts[i], 1)
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, c := range counts {
			if c != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, c)
			}
		}
	}
}

func TestForEachZeroTasks(t *testing.T) {
	if err := ForEachCtx(context.Background(), 4, 0, func(int) error { return errors.New("must not run") }); err != nil {
		t.Fatal(err)
	}
}

func TestForEachLowestIndexedError(t *testing.T) {
	// Several tasks fail; regardless of scheduling the reported error must
	// be the lowest-indexed one, and every task must still have run.
	for _, workers := range []int{1, 3, 8} {
		const n = 64
		var ran atomic.Int32
		err := ForEachCtx(context.Background(), workers, n, func(i int) error {
			ran.Add(1)
			if i == 7 || i == 31 || i == 63 {
				return fmt.Errorf("task %d failed", i)
			}
			return nil
		})
		if err == nil || err.Error() != "task 7 failed" {
			t.Fatalf("workers=%d: got %v, want error of task 7", workers, err)
		}
		if ran.Load() != n {
			t.Fatalf("workers=%d: only %d/%d tasks ran after failure", workers, ran.Load(), n)
		}
	}
}

func TestForEachBoundsConcurrency(t *testing.T) {
	const workers = 3
	var cur, peak atomic.Int32
	var mu sync.Mutex
	err := ForEachCtx(context.Background(), workers, 50, func(i int) error {
		c := cur.Add(1)
		mu.Lock()
		if c > peak.Load() {
			peak.Store(c)
		}
		mu.Unlock()
		cur.Add(-1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > workers {
		t.Fatalf("observed %d concurrent tasks, worker cap is %d", p, workers)
	}
}

func TestMapOrdersResultsByIndex(t *testing.T) {
	for _, workers := range []int{1, 4, 0} {
		out, err := MapCtx(context.Background(), workers, 40, func(i int) (int, error) { return i * i, nil })
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("workers=%d: slot %d holds %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestMapError(t *testing.T) {
	_, err := MapCtx(context.Background(), 4, 10, func(i int) (int, error) {
		if i%2 == 1 {
			return 0, fmt.Errorf("odd %d", i)
		}
		return i, nil
	})
	if err == nil || err.Error() != "odd 1" {
		t.Fatalf("got %v, want error of task 1", err)
	}
}

func TestWorkersResolution(t *testing.T) {
	if Workers(5) != 5 {
		t.Fatalf("Workers(5) = %d", Workers(5))
	}
	if Workers(0) < 1 {
		t.Fatalf("Workers(0) = %d, want >= 1", Workers(0))
	}
	if Workers(-3) != Workers(0) {
		t.Fatalf("negative and zero should both mean per-CPU")
	}
}
