// Package par provides the small deterministic-concurrency primitives the
// pipeline and the ML trainers share: a bounded worker pool with ordered
// fan-in. The design contract, relied on throughout the repository, is that
// parallel execution never changes results — workers receive their inputs
// by index, write their outputs by index, and any error reported is the one
// the equivalent sequential loop would have hit first. Panics inside
// workers are recovered, the pool is drained (no goroutine leaks), and the
// panic is re-raised on the caller's goroutine.
//
// Since the streaming refactor, par is the single-stage degenerate case of
// internal/pipe: MapOrdered is a one-stage pipeline in ContinueOnError mode
// whose ordered drain fills a result slice, and Do is the same over an
// index range. There is one concurrency substrate in the repository, not
// two — par keeps only the slice-shaped convenience API. At one worker the
// engine fuses the source and the stage into a loop on the caller's
// goroutine, which is par's sequential path: no goroutine starts, and a
// panic still re-raises as *PanicError.
package par

import (
	"context"

	"freephish/internal/pipe"
)

// N resolves a Parallelism knob: n itself when positive, otherwise
// runtime.GOMAXPROCS(0). Every Parallelism/Workers option in the
// repository routes through this (delegating to pipe.Workers), so
// "0 = use all cores" is uniform.
func N(n int) int {
	return pipe.Workers(n)
}

// PanicError wraps a value recovered from a worker panic so it can be
// re-raised on the caller's goroutine with the worker's stack attached.
// It is the same type the pipe engine raises.
type PanicError = pipe.PanicError

// MapOrdered applies fn to every item using at most workers goroutines and
// returns the results in input order. All items are attempted even when
// some fail; the returned error is the one with the lowest input index —
// exactly the error a sequential loop over items would return first — so
// error selection is independent of goroutine scheduling. If a worker
// panics, remaining in-flight work drains, queued work is skipped, and the
// lowest-index panic is re-raised here wrapped in *PanicError.
func MapOrdered[T, R any](workers int, items []T, fn func(i int, item T) (R, error)) ([]R, error) {
	results := make([]R, len(items))
	w := min(N(workers), max(len(items), 1))
	p := pipe.New(context.Background(), pipe.Options{Name: "par", ContinueOnError: true})
	st := pipe.Stage(pipe.Source(p, w, items), "map", w, w, fn)
	err := pipe.Drain(st, func(i int, v R) error {
		results[i] = v
		return nil
	})
	return results, err
}

// Do runs fn(i) for every i in [0, n) using at most workers goroutines and
// returns once all calls complete. It is MapOrdered without results or
// errors: the caller writes outputs into pre-sized slices by index, which
// keeps the fan-in trivially ordered. Worker panics are re-raised on the
// caller's goroutine after the pool drains.
func Do(workers, n int, fn func(i int)) {
	w := min(N(workers), max(n, 1))
	p := pipe.New(context.Background(), pipe.Options{Name: "par"})
	st := pipe.Stage(pipe.Range(p, w, n), "do", w, w, func(i, _ int) (struct{}, error) {
		fn(i)
		return struct{}{}, nil
	})
	_ = pipe.Drain(st, func(int, struct{}) error { return nil })
}
