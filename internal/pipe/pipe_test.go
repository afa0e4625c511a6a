package pipe

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"freephish/internal/obs"
)

// runSweepCase pushes n items through a two-stage pipeline with
// completion-order jitter and returns the ordered drain output.
func runSweepCase(t *testing.T, n, workers, depth int) []int {
	t.Helper()
	items := make([]int, n)
	for i := range items {
		items[i] = i
	}
	p := New(context.Background(), Options{Name: "sweep"})
	src := Source(p, depth, items)
	// Stagger completion so later items routinely finish before earlier
	// ones and the reorder buffer has real work to do.
	st1 := Stage(src, "square", workers, depth, func(i, v int) (int, error) {
		if i%5 == 0 {
			time.Sleep(time.Duration(i%4) * 100 * time.Microsecond)
		}
		return v * v, nil
	})
	st2 := Stage(st1, "negate", workers, depth, func(i, v int) (int, error) {
		if i%7 == 0 {
			time.Sleep(time.Duration(i%3) * 100 * time.Microsecond)
		}
		return -v, nil
	})
	out, err := Collect(st2)
	if err != nil {
		t.Fatalf("workers=%d depth=%d: %v", workers, depth, err)
	}
	return out
}

// TestDeterminismSweep is the engine's core contract: the same input
// through every (workers, queue-depth) combination produces the identical
// ordered output.
func TestDeterminismSweep(t *testing.T) {
	const n = 300
	want := make([]int, n)
	for i := range want {
		want[i] = -(i * i)
	}
	for _, workers := range []int{1, 2, 8} {
		for _, depth := range []int{1, 4, 64} {
			got := runSweepCase(t, n, workers, depth)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("workers=%d depth=%d: output diverges from sequential order", workers, depth)
			}
		}
	}
}

func TestFailFastLowestIndexError(t *testing.T) {
	for _, workers := range []int{1, 8} {
		items := make([]int, 128)
		p := New(context.Background(), Options{})
		src := Source(p, 4, items)
		st := Stage(src, "work", workers, 4, func(i, v int) (int, error) {
			if i == 17 || i == 90 {
				return 0, fmt.Errorf("item %d failed", i)
			}
			return i, nil
		})
		applied := 0
		err := Drain(st, func(i, v int) error {
			applied++
			return nil
		})
		if err == nil || err.Error() != "item 17 failed" {
			t.Fatalf("workers=%d: err = %v, want the lowest-index error", workers, err)
		}
		// Fail-fast: everything before the failed item was applied, nothing
		// at or after it.
		if applied != 17 {
			t.Fatalf("workers=%d: applied %d items, want exactly the 17 preceding the failure", workers, applied)
		}
	}
}

func TestContinueOnErrorAttemptsAll(t *testing.T) {
	for _, workers := range []int{1, 8} {
		items := make([]int, 64)
		var attempts atomic.Int64
		p := New(context.Background(), Options{ContinueOnError: true})
		src := Source(p, 4, items)
		st := Stage(src, "work", workers, 4, func(i, v int) (int, error) {
			attempts.Add(1)
			if i == 9 || i == 41 {
				return -1, fmt.Errorf("item %d failed", i)
			}
			return i, nil
		})
		out, err := Collect(st)
		if err == nil || err.Error() != "item 9 failed" {
			t.Fatalf("workers=%d: err = %v, want the lowest-index error", workers, err)
		}
		if got := attempts.Load(); got != 64 {
			t.Fatalf("workers=%d: attempted %d items, want all 64", workers, got)
		}
		if len(out) != 64 || out[40] != 40 || out[63] != 63 || out[9] != -1 {
			t.Fatalf("workers=%d: continue-on-error results corrupted: len=%d", workers, len(out))
		}
	}
}

func TestSinkErrorCancelsUpstream(t *testing.T) {
	for _, workers := range []int{1, 2} {
		var produced atomic.Int64
		p := New(context.Background(), Options{})
		src := Range(p, 2, 100000)
		st := Stage(src, "work", workers, 2, func(i, v int) (int, error) {
			produced.Add(1)
			return v, nil
		})
		wantErr := errors.New("sink rejects item 5")
		err := Drain(st, func(i, v int) error {
			if i == 5 {
				return wantErr
			}
			return nil
		})
		if !errors.Is(err, wantErr) {
			t.Fatalf("workers=%d: err = %v", workers, err)
		}
		// The source must have stopped near the failure, not run to 100k;
		// a fused stage stops exactly there.
		bound := int64(64)
		if workers == 1 {
			bound = 6
		}
		if got := produced.Load(); got > bound {
			t.Fatalf("workers=%d: upstream produced %d items after a sink error at 5", workers, got)
		}
	}
}

func TestWorkerPanicPropagates(t *testing.T) {
	for _, workers := range []int{1, 4} {
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("workers=%d: worker panic did not propagate", workers)
				}
				pe, ok := r.(*PanicError)
				if !ok {
					t.Fatalf("workers=%d: recovered %T, want *PanicError", workers, r)
				}
				if pe.Value != "boom" {
					t.Fatalf("workers=%d: panic value = %v, want boom", workers, pe.Value)
				}
			}()
			p := New(context.Background(), Options{})
			src := Range(p, 4, 64)
			st := Stage(src, "work", workers, 4, func(i, v int) (int, error) {
				if i == 5 {
					panic("boom")
				}
				return v, nil
			})
			_, _ = Collect(st)
		}()
	}
}

func TestExternalCancelDrains(t *testing.T) {
	for _, workers := range []int{1, 2} {
		ctx, cancel := context.WithCancel(context.Background())
		release := make(chan struct{})
		p := New(ctx, Options{})
		src := Range(p, 2, 10000)
		st := Stage(src, "stall", workers, 2, func(i, v int) (int, error) {
			if i == 3 {
				<-release // stalls until cancellation
			}
			return v, nil
		})
		go func() {
			time.Sleep(20 * time.Millisecond)
			cancel()
			close(release)
		}()
		applied := 0
		err := Drain(st, func(i, v int) error {
			applied++
			return nil
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		// A fused stage drops the item it was running when the cancel
		// came; a goroutine stage may race it through.
		if workers == 1 && applied != 3 {
			t.Fatalf("fused: applied %d items, want the 3 before the stalled one", applied)
		}
	}
}

// TestStalledStageBackpressures proves the bounded-memory half of the
// design: with the head-of-line item stalled in the middle stage, the
// source may run at most (stage workers + queues + reorder window) ahead —
// never the whole input.
func TestStalledStageBackpressures(t *testing.T) {
	const n, workers, depth = 100000, 4, 8
	var pulled atomic.Int64
	release := make(chan struct{})
	p := New(context.Background(), Options{})
	src := Range(p, depth, n)
	counted := Stage(src, "count", 1, depth, func(i, v int) (int, error) {
		pulled.Add(1)
		return v, nil
	})
	stalled := Stage(counted, "stall", workers, depth, func(i, v int) (int, error) {
		if i == 0 {
			<-release
		}
		return v, nil
	})
	done := make(chan error, 1)
	go func() {
		done <- Drain(stalled, func(i, v int) error { return nil })
	}()
	time.Sleep(50 * time.Millisecond)
	// Upper bound on how far the flow can advance past a stalled head:
	// every queue full plus every worker and reorder slot occupied.
	bound := int64(4*workers + 4*depth + 8)
	if got := pulled.Load(); got > bound {
		t.Fatalf("stalled pipeline pulled %d items; backpressure bound is %d", got, bound)
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatalf("drain after release: %v", err)
	}
	if got := pulled.Load(); got != n {
		t.Fatalf("only %d/%d items flowed after release", got, n)
	}
}

func TestNoGoroutineLeak(t *testing.T) {
	base := runtime.NumGoroutine()
	for round := 0; round < 20; round++ {
		p := New(context.Background(), Options{})
		src := Range(p, 4, 50)
		st := Stage(src, "work", 8, 4, func(i, v int) (int, error) {
			if i%13 == 0 {
				return 0, errors.New("planned failure")
			}
			return v, nil
		})
		if err := Drain(st, func(int, int) error { return nil }); err == nil {
			t.Fatal("expected an error")
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= base+2 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked: started with %d, now %d", base, runtime.NumGoroutine())
}

func TestStageMetricsRegistered(t *testing.T) {
	reg := obs.NewRegistry()
	p := New(context.Background(), Options{Name: "poll", Registry: reg})
	src := Source(p, 4, []int{1, 2, 3, 4, 5})
	st := Stage(src, "fetch", 2, 4, func(i, v int) (int, error) {
		if i == 2 {
			return 0, errors.New("one failure")
		}
		return v, nil
	})
	p2 := Stage(st, "classify", 2, 4, func(i, v int) (int, error) { return v, nil })
	// ContinueOnError keeps the failed item flowing so counts are exact.
	p.continueOnError = true
	if _, err := Collect(p2); err == nil {
		t.Fatal("expected the injected failure")
	}
	snap := map[string]float64{}
	for _, s := range reg.Snapshot() {
		snap[s.Name+"|"+s.Labels["pipe"]+"|"+s.Labels["stage"]] += s.Value
	}
	if got := snap["freephish_pipe_items_total|poll|fetch"]; got != 5 {
		t.Fatalf("fetch items_total = %v, want 5 (snapshot: %v)", got, snap)
	}
	if got := snap["freephish_pipe_errors_total|poll|fetch"]; got != 1 {
		t.Fatalf("fetch errors_total = %v, want 1", got)
	}
	// The failed item skips the downstream stage's fn.
	if got := snap["freephish_pipe_items_total|poll|classify"]; got != 4 {
		t.Fatalf("classify items_total = %v, want 4", got)
	}
}

func TestDepthAndWorkerResolution(t *testing.T) {
	if DepthOrDefault(0) != DefaultDepth || DepthOrDefault(-2) != DefaultDepth || DepthOrDefault(3) != 3 {
		t.Fatal("DepthOrDefault broken")
	}
	if Workers(0) != runtime.GOMAXPROCS(0) || Workers(5) != 5 {
		t.Fatal("Workers broken")
	}
}

// TestOnEmitOrderedPerStage is the hook contract behind lifecycle tracing:
// OnEmit fires once per item per stage in input order within each stage
// (stages interleave freely), carries the item's error, and the drain
// point reports under stage "drain". With the hook unset nothing extra
// runs at all. It holds on the goroutine path, on a fused one-worker
// stage, and on a fused stage materialised by the stage after it.
func TestOnEmitOrderedPerStage(t *testing.T) {
	const n = 200
	type emit struct {
		stage string
		seq   int
		err   error
	}
	for _, tc := range []struct {
		workers int
		stages  []string
	}{
		{8, []string{"a", "b"}},
		{1, []string{"a", "b"}},
		{1, []string{"a"}},
	} {
		var mu sync.Mutex
		perStage := map[string][]emit{}
		p := New(context.Background(), Options{
			Name:            "traced",
			ContinueOnError: true,
			OnEmit: func(stage string, seq int, err error) {
				mu.Lock()
				perStage[stage] = append(perStage[stage], emit{stage, seq, err})
				mu.Unlock()
			},
		})
		wantErr := errors.New("boom")
		st := Stage(Range(p, 4, n), "a", tc.workers, 4, func(i, v int) (int, error) {
			if i%5 == 0 {
				time.Sleep(time.Duration(i%4) * 50 * time.Microsecond)
			}
			if i == 17 {
				return 0, wantErr
			}
			return v, nil
		})
		if len(tc.stages) == 2 {
			st = Stage(st, "b", tc.workers, 4, func(i, v int) (int, error) { return v, nil })
		}
		if err := Drain(st, func(i, v int) error { return nil }); !errors.Is(err, wantErr) {
			t.Fatalf("workers=%d stages=%v: Drain = %v, want the injected error", tc.workers, tc.stages, err)
		}

		for _, stage := range append(tc.stages, "drain") {
			emits := perStage[stage]
			if len(emits) != n {
				t.Fatalf("workers=%d: stage %q emitted %d times, want %d", tc.workers, stage, len(emits), n)
			}
			for i, e := range emits {
				if e.seq != i {
					t.Fatalf("workers=%d: stage %q emission %d has seq %d: OnEmit must follow input order", tc.workers, stage, i, e.seq)
				}
				if (e.seq == 17) != (e.err != nil) {
					t.Fatalf("workers=%d: stage %q seq %d err = %v", tc.workers, stage, e.seq, e.err)
				}
			}
		}
	}
}

// TestFusedStageStartsNoGoroutine: Source → Stage(1) → Drain runs its
// stage and its drain on the caller's goroutine, whether the graph
// completes, fails fast, continues past errors, panics or is cancelled.
func TestFusedStageStartsNoGoroutine(t *testing.T) {
	base := runtime.NumGoroutine()
	var seen atomic.Int64 // highest goroutine count observed inside fn
	observe := func() {
		if g := int64(runtime.NumGoroutine()); g > seen.Load() {
			seen.Store(g)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cases := []struct {
		name string
		opts Options
		ctx  context.Context
		fn   func(i, v int) (int, error)
	}{
		{"ok", Options{}, context.Background(), func(i, v int) (int, error) { return v, nil }},
		{"fail-fast", Options{}, context.Background(), func(i, v int) (int, error) {
			if i == 7 {
				return 0, errors.New("planned failure")
			}
			return v, nil
		}},
		{"continue-on-error", Options{ContinueOnError: true}, context.Background(), func(i, v int) (int, error) {
			if i%7 == 0 {
				return 0, errors.New("planned failure")
			}
			return v, nil
		}},
		{"panic", Options{}, context.Background(), func(i, v int) (int, error) {
			if i == 7 {
				panic("boom")
			}
			return v, nil
		}},
		{"cancel", Options{}, ctx, func(i, v int) (int, error) {
			if i == 7 {
				cancel()
			}
			return v, nil
		}},
	}
	for _, tc := range cases {
		func() {
			defer func() { _ = recover() }()
			p := New(tc.ctx, tc.opts)
			st := Stage(Source(p, 4, make([]int, 20)), "work", 1, 4, func(i, v int) (int, error) {
				observe()
				return tc.fn(i, v)
			})
			_ = Drain(st, func(int, int) error {
				observe()
				return nil
			})
		}()
		if got := seen.Load(); got > int64(base) {
			t.Fatalf("%s: %d goroutines inside the fused graph, want the caller's %d", tc.name, got, base)
		}
	}
}

// TestFusedStageRegistersSameSeries: a fused one-worker graph registers
// and updates the same freephish_pipe_* series, with the same counts, as
// the two-worker goroutine graph over the same input.
func TestFusedStageRegistersSameSeries(t *testing.T) {
	series := func(workers int) map[string]float64 {
		reg := obs.NewRegistry()
		p := New(context.Background(), Options{Name: "monitor", Registry: reg, ContinueOnError: true})
		st := Stage(Source(p, 4, make([]int, 9)), "check", workers, 4, func(i, v int) (int, error) {
			if i == 4 {
				return 0, errors.New("one failure")
			}
			return v, nil
		})
		if _, err := Collect(st); err == nil {
			t.Fatalf("workers=%d: expected the injected failure", workers)
		}
		out := map[string]float64{}
		for _, s := range reg.Snapshot() {
			key := s.Name + "|" + s.Labels["pipe"] + "|" + s.Labels["stage"]
			switch s.Name {
			case "freephish_pipe_items_total", "freephish_pipe_errors_total":
				out[key] = s.Value
			case "freephish_pipe_stage_seconds":
				out[key] = float64(s.Count)
			default:
				// Gauges read 0 once a graph has drained; only the
				// series' presence is compared.
				out[key] = 0
			}
		}
		return out
	}
	fused, pooled := series(1), series(2)
	if !reflect.DeepEqual(fused, pooled) {
		t.Fatalf("fused graph series %v differ from the goroutine graph's %v", fused, pooled)
	}
	if fused["freephish_pipe_items_total|monitor|check"] != 9 || fused["freephish_pipe_errors_total|monitor|check"] != 1 ||
		fused["freephish_pipe_stage_seconds|monitor|check"] != 9 {
		t.Fatalf("fused graph counted %v", fused)
	}
}

// TestMultiStageGraphKeepsOverlap: a downstream stage runs a fused flow on
// a goroutine of its own, so in Source → Stage(1) → Stage(1) stage one
// starts item 1 while stage two still holds item 0. Fusing the whole
// chain onto one goroutine would stall here.
func TestMultiStageGraphKeepsOverlap(t *testing.T) {
	started := make(chan struct{})
	p := New(context.Background(), Options{})
	first := Stage(Range(p, 1, 3), "first", 1, 1, func(i, v int) (int, error) {
		if i == 1 {
			close(started)
		}
		return v, nil
	})
	second := Stage(first, "second", 1, 1, func(i, v int) (int, error) {
		if i == 0 {
			select {
			case <-started:
			case <-time.After(5 * time.Second):
				return 0, errors.New("stage one did not start item 1 while stage two held item 0")
			}
		}
		return v, nil
	})
	if _, err := Collect(second); err != nil {
		t.Fatal(err)
	}
}
