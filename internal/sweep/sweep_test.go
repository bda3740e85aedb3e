package sweep

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
)

func TestEachVisitsEveryIndexOnce(t *testing.T) {
	for _, parallel := range []int{1, 2, 8, 100} {
		got := make([]int, 50)
		if err := Each(parallel, len(got), func(i int) error {
			got[i]++
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		for i, v := range got {
			if v != 1 {
				t.Fatalf("parallel=%d: index %d ran %d times, want 1", parallel, i, v)
			}
		}
	}
}

func TestEachEmpty(t *testing.T) {
	if err := Each(4, 0, func(int) error { panic("called") }); err != nil {
		t.Fatalf("Each(0) = %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := EachContext(ctx, 4, 0, func(int) error { panic("called") }); !errors.Is(err, context.Canceled) {
		t.Fatalf("EachContext(cancelled, 0) = %v, want context.Canceled", err)
	}
}

func TestEachReportsLowestIndexError(t *testing.T) {
	errA := errors.New("a")
	errB := errors.New("b")
	errs := []error{nil, errB, errA}
	// Whatever the scheduling, index 1's error wins over index 2's.
	for trial := 0; trial < 20; trial++ {
		if err := Each(3, len(errs), func(i int) error { return errs[i] }); !errors.Is(err, errB) {
			t.Fatalf("trial %d: err = %v, want %v", trial, err, errB)
		}
	}
}

func TestEachStopsAfterFailure(t *testing.T) {
	var started atomic.Int64
	// One worker: the failure at index 0 must keep the remaining 99 calls
	// from starting.
	err := Each(1, 100, func(i int) error {
		started.Add(1)
		if i == 0 {
			return errors.New("boom")
		}
		return nil
	})
	if err == nil {
		t.Fatal("no error")
	}
	if started.Load() != 1 {
		t.Fatalf("started %d calls after a failure, want 1", started.Load())
	}
}

func TestEachRecoversPanic(t *testing.T) {
	err := Each(2, 2, func(i int) error {
		if i == 1 {
			panic("kaboom")
		}
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "kaboom") {
		t.Fatalf("err = %v, want panic capture", err)
	}
}

func TestEach(t *testing.T) {
	var sum atomic.Int64
	if err := Each(4, 10, func(i int) error {
		sum.Add(int64(i))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if sum.Load() != 45 {
		t.Fatalf("sum = %d, want 45", sum.Load())
	}
	wantErr := fmt.Errorf("nope")
	if err := Each(4, 10, func(i int) error {
		if i == 3 {
			return wantErr
		}
		return nil
	}); !errors.Is(err, wantErr) {
		t.Fatalf("err = %v, want %v", err, wantErr)
	}
}

func TestDefaultParallel(t *testing.T) {
	if DefaultParallel(3) != 3 {
		t.Fatal("explicit worker count not honored")
	}
	if DefaultParallel(0) < 1 || DefaultParallel(-1) < 1 {
		t.Fatal("auto worker count must be at least 1")
	}
}

func TestEachContextCancelStopsClaiming(t *testing.T) {
	// One worker, a context cancelled by the first call: later calls must
	// never start, and the sweep must report the cancellation.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var started atomic.Int64
	err := EachContext(ctx, 1, 8, func(i int) error {
		started.Add(1)
		if i == 0 {
			cancel()
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := started.Load(); n != 1 {
		t.Fatalf("%d calls started after cancellation, want 1", n)
	}

	// With a live context, a call failure is reported as in Each.
	wantErr := fmt.Errorf("boom")
	err = EachContext(context.Background(), 1, 3, func(i int) error { return wantErr })
	if !errors.Is(err, wantErr) {
		t.Fatalf("err = %v, want %v", err, wantErr)
	}
}
