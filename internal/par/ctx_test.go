package par

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// noGoroutineLeak fails the test if goroutines outlive it (bounded wait
// for the pool's workers to drain).
func noGoroutineLeak(t *testing.T) {
	t.Helper()
	before := runtime.NumGoroutine()
	t.Cleanup(func() {
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > before {
			if time.Now().After(deadline) {
				buf := make([]byte, 1<<16)
				n := runtime.Stack(buf, true)
				t.Fatalf("goroutine leak: %d before, %d after\n%s",
					before, runtime.NumGoroutine(), buf[:n])
			}
			time.Sleep(5 * time.Millisecond)
		}
	})
}

func TestForEachCtxBackgroundRunsAll(t *testing.T) {
	noGoroutineLeak(t)
	var n atomic.Int32
	if err := ForEachCtx(context.Background(), 100, 4, func(i int) { n.Add(1) }); err != nil {
		t.Fatal(err)
	}
	if n.Load() != 100 {
		t.Fatalf("ran %d of 100 items", n.Load())
	}
}

func TestForEachCtxCancelStopsScheduling(t *testing.T) {
	noGoroutineLeak(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	const workers = 4
	var n, late atomic.Int32
	var cancelled atomic.Bool
	err := ForEachCtx(ctx, 10_000, workers, func(i int) {
		if cancelled.Load() {
			late.Add(1)
		}
		if n.Add(1) == 8 {
			cancel()
			cancelled.Store(true)
		}
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	// Only items that start after cancel() has returned count: the item
	// that cancels may be preempted before its call, while other shards
	// run on. After it, each shard may start at most the one item it was
	// already scheduling; everything else must be skipped.
	if got := late.Load(); got > workers {
		t.Fatalf("%d items started after cancellation (of %d run)", got, n.Load())
	}
}

func TestForEachCtxSingleWorkerHonorsCtx(t *testing.T) {
	noGoroutineLeak(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var n int // single worker: no synchronization needed
	err := ForEachCtx(ctx, 1000, 1, func(i int) {
		n++
		if n == 3 {
			cancel()
		}
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if n != 3 {
		t.Fatalf("serial path ran %d items past cancellation", n)
	}
}

func TestForEachCtxPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ran := false
	if err := ForEachCtx(ctx, 10, 2, func(i int) { ran = true }); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if ran {
		t.Fatal("item ran under a cancelled context")
	}
}

func TestRunCtxBackgroundRunsAll(t *testing.T) {
	noGoroutineLeak(t)
	var n atomic.Int32
	fns := make([]func(), 9)
	for i := range fns {
		fns[i] = func() { n.Add(1) }
	}
	if err := RunCtx(context.Background(), 3, fns...); err != nil {
		t.Fatal(err)
	}
	if n.Load() != 9 {
		t.Fatalf("ran %d of 9 thunks", n.Load())
	}
}

func TestRunCtxCancelStopsScheduling(t *testing.T) {
	noGoroutineLeak(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var n atomic.Int32
	fns := make([]func(), 64)
	for i := range fns {
		fns[i] = func() {
			if n.Add(1) == 2 {
				cancel()
			}
			time.Sleep(time.Millisecond)
		}
	}
	err := RunCtx(ctx, 2, fns...)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	// Two in flight when cancel landed, plus at most a couple already
	// admitted through the semaphore race.
	if got := n.Load(); got > 8 {
		t.Fatalf("scheduled %d thunks after cancellation", got)
	}
}

func TestRunCtxSerialHonorsCtx(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	n := 0
	fns := []func(){
		func() { n++; cancel() },
		func() { n++ },
		func() { n++ },
	}
	if err := RunCtx(ctx, 1, fns...); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if n != 1 {
		t.Fatalf("serial path ran %d thunks past cancellation", n)
	}
}

func TestRunCtxEmpty(t *testing.T) {
	if err := RunCtx(context.Background(), 4); err != nil {
		t.Fatal(err)
	}
}
