// Package parallel provides the fork-join worker pool that executes the
// row-parallel phases of the sparse kernels on real goroutines.  It is the
// live counterpart to package sched's simulator: the same task decomposition
// that the simulator times is actually run, demonstrating that the
// transformations APT licenses are executable (and data-race free — the
// tests run under the race detector).
package parallel

import (
	"fmt"
	"runtime/debug"
	"sync"
	"time"

	"repro/internal/telemetry"
)

// WorkerPanic wraps a panic that escaped a worker goroutine.  The pool
// re-raises it on the caller's goroutine after the join, so a panicking fn
// crashes the program with a useful trace instead of an opaque
// "sync: WaitGroup" deadlock or a runtime crash on a detached goroutine.
type WorkerPanic struct {
	// Value is the value originally passed to panic.
	Value any
	// Stack is the worker goroutine's stack at the point of the panic.
	Stack []byte
}

func (e *WorkerPanic) Error() string {
	return fmt.Sprintf("parallel: worker panic: %v\n%s", e.Value, e.Stack)
}

// Pool is a fixed-width fork-join executor.  A Pool is safe for sequential
// reuse; a single ForEach call fans out to Workers goroutines and joins
// before returning (the barrier the sched simulator charges for).
type Pool struct {
	workers int
	tel     *telemetry.Set

	// Pre-resolved instruments (nil when telemetry is off — every method on
	// them is then a no-op, keeping the hot path allocation-free).
	forks     *telemetry.Counter
	chunks    *telemetry.Counter
	busyNS    *telemetry.Histogram
	barrierNS *telemetry.Histogram
}

// NewPool returns a pool of the given width (minimum 1).
func NewPool(workers int) *Pool {
	if workers < 1 {
		workers = 1
	}
	return &Pool{workers: workers}
}

// SetTelemetry attaches a telemetry set, recording fork-join counts, per-
// worker busy time, and barrier wait (join latency minus each worker's own
// finish) under pool.* instruments.  Returns the pool for chaining.
func (p *Pool) SetTelemetry(tel *telemetry.Set) *Pool {
	p.tel = tel
	p.forks = tel.Counter("pool.forks")
	p.chunks = tel.Counter("pool.chunks")
	p.busyNS = tel.Histogram("pool.worker_busy_ns")
	p.barrierNS = tel.Histogram("pool.barrier_wait_ns")
	return p
}

// Telemetry returns the attached telemetry set (nil-safe to use).
func (p *Pool) Telemetry() *telemetry.Set { return p.tel }

// Workers returns the pool width.
func (p *Pool) Workers() int { return p.workers }

// ForEach runs fn(i) for every i in [0, n), partitioned across the pool,
// and joins.  If fn panics, the first panic is re-raised on the caller's
// goroutine as a *WorkerPanic after all workers have joined.
func (p *Pool) ForEach(n int, fn func(i int)) {
	p.ForEachChunk(n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			fn(i)
		}
	})
}

// ForEachChunk partitions [0, n) into one contiguous chunk per worker and
// runs fn(lo, hi) on each concurrently.  Chunked form lets callers keep
// per-worker accumulators without sharing.  Panic and join semantics match
// ForEach.
func (p *Pool) ForEachChunk(n int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	metered := p.busyNS != nil
	if p.workers == 1 || n == 1 {
		if metered {
			p.forks.Add(1)
			p.chunks.Add(1)
			start := time.Now()
			fn(0, n)
			p.busyNS.Observe(time.Since(start).Nanoseconds())
			p.barrierNS.Observe(0)
			return
		}
		fn(0, n)
		return
	}
	chunk, slots := p.split(n)
	var ends []time.Time
	if metered {
		p.forks.Add(1)
		p.chunks.Add(int64(slots))
		ends = make([]time.Time, slots)
	}
	var (
		panicOnce sync.Once
		pan       *WorkerPanic
		wg        sync.WaitGroup
	)
	slot := 0
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(slot, lo, hi int) {
			// Deferred funcs run LIFO: the recover/metering defer below runs
			// before wg.Done, so its writes happen-before wg.Wait returns.
			defer wg.Done()
			start := time.Now()
			defer func() {
				if metered {
					now := time.Now()
					ends[slot] = now
					p.busyNS.Observe(now.Sub(start).Nanoseconds())
				}
				if r := recover(); r != nil {
					panicOnce.Do(func() {
						pan = &WorkerPanic{Value: r, Stack: debug.Stack()}
					})
				}
			}()
			fn(lo, hi)
		}(slot, lo, hi)
		slot++
	}
	wg.Wait()
	if metered {
		join := time.Now()
		for _, end := range ends {
			p.barrierNS.Observe(join.Sub(end).Nanoseconds())
		}
	}
	if pan != nil {
		panic(pan)
	}
}

// split returns the length of the chunks ForEachChunk partitions [0, n)
// into, one per worker, and their count.
func (p *Pool) split(n int) (chunk, slots int) {
	w := min(p.workers, n)
	chunk = (n + w - 1) / w
	return chunk, (n + chunk - 1) / chunk
}

// Reduce runs one accumulator per worker over [0, n) and combines the
// partial results sequentially with merge.  init produces a fresh
// accumulator; step folds index i into it.  The accumulators run on
// ForEachChunk's chunks, so panic and join semantics match ForEach.
func Reduce[T any](p *Pool, n int, init func() T, step func(acc T, i int) T, merge func(a, b T) T) T {
	if n <= 0 {
		return init()
	}
	chunk, slots := p.split(n)
	parts := make([]T, slots)
	p.ForEachChunk(n, func(lo, hi int) {
		acc := init()
		for i := lo; i < hi; i++ {
			acc = step(acc, i)
		}
		parts[lo/chunk] = acc
	})
	out := parts[0]
	for _, part := range parts[1:] {
		out = merge(out, part)
	}
	return out
}
