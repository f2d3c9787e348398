// Package admit is the admission tier of the query plane: the two-channel
// slots/queue machinery that bounds how much work a process accepts, the
// drain lifecycle that lets it stop cleanly, and the backlog-over-drain-rate
// Retry-After estimator that turns shedding into actionable backpressure.
//
// The model is two nested capacities.  A token in `slots` admits a request
// into the building — it covers both a run slot and a position in the
// bounded queue in front of the run slots, so at most MaxConcurrent +
// QueueDepth requests hold tokens at once and the next one is shed
// immediately (429 + Retry-After) instead of growing an unbounded queue.  A
// token in `run` grants actual execution; admitted requests wait for one,
// bounding concurrency at MaxConcurrent.
//
// The same Controller backs both the single-node server (internal/serve)
// and the cluster router (internal/route): admission control is transport-
// and execution-agnostic, which is the point of splitting it out of the
// serve monolith.
package admit

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/telemetry"
)

// RetryAfterWindow is the completion-rate lookback for the Retry-After
// estimator, and RetryAfterMax the ceiling: a Retry-After beyond a minute
// stops being backpressure and starts being an outage announcement.
const (
	RetryAfterWindow = 10 * time.Second
	RetryAfterMax    = 60
)

// Controller owns one process's admission state.  All methods are safe for
// concurrent use.
type Controller struct {
	slots chan struct{} // admission tokens: run slots + bounded queue
	run   chan struct{} // run slots

	mu       sync.Mutex // guards draining vs. inflight.Add
	draining bool
	inflight sync.WaitGroup

	// completions feeds the Retry-After estimator: one count per completed
	// request.  Controller-owned (not drawn from a telemetry set, which may
	// be absent) because shedding must be able to estimate drain rate even
	// on an uninstrumented process.
	completions completionRing

	// The lifecycle counts: registry counters resolved by Feed (nil, so
	// no-ops, without it).
	accepted  *telemetry.Counter
	completed *telemetry.Counter
	shed      *telemetry.Counter
	refused   *telemetry.Counter // rejected because draining
	gauge     atomic.Int64       // requests admitted and not yet completed
}

// New builds a Controller with maxConcurrent run slots and a queue of
// queueDepth admitted-but-waiting requests in front of them.
func New(maxConcurrent, queueDepth int) *Controller {
	return &Controller{
		slots:       make(chan struct{}, maxConcurrent+queueDepth),
		run:         make(chan struct{}, maxConcurrent),
		completions: completionRing{start: time.Now()},
	}
}

// Feed books the lifecycle counts into tel's registry under the owner's
// prefix — prefix.requests (accepted), .completed, .shed and
// .refused_draining — and registers the in-flight gauge prefix.inflight.
// A nil tel counts nothing.  Call it before serving.  Returns the
// controller for chaining.
func (c *Controller) Feed(tel *telemetry.Set, prefix string) *Controller {
	c.accepted = tel.Counter(prefix + ".requests")
	c.completed = tel.Counter(prefix + ".completed")
	c.shed = tel.Counter(prefix + ".shed")
	c.refused = tel.Counter(prefix + ".refused_draining")
	tel.GaugeFunc(prefix+".inflight", c.gauge.Load)
	return c
}

// TryAcquire claims an admission token without blocking; false means the
// building is full (MaxConcurrent running + QueueDepth queued) and the
// caller should shed with 429 + RetryAfterSeconds.
func (c *Controller) TryAcquire() bool {
	select {
	case c.slots <- struct{}{}:
		return true
	default:
		c.shed.Add(1)
		return false
	}
}

// Release returns an admission token claimed by TryAcquire.
func (c *Controller) Release() { <-c.slots }

// Begin registers one in-flight request unless the controller is draining
// (in which case it counts a refusal and the caller should answer 503).
// Every successful Begin must be paired with exactly one Finish.
func (c *Controller) Begin() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.draining {
		c.refused.Add(1)
		return false
	}
	c.inflight.Add(1)
	c.gauge.Add(1)
	c.accepted.Add(1)
	return true
}

// Finish completes a Begin: the request left the building, the drain (if
// any) may observe it, and the completion feeds the Retry-After rate.
func (c *Controller) Finish() {
	c.gauge.Add(-1)
	c.completed.Add(1)
	c.completions.add(c.completions.now())
	c.inflight.Done()
}

// AcquireRun waits for a run slot; false means ctx expired first (the
// client hung up while queued).  Admitted requests finish even during a
// drain, so the drain itself never aborts the wait.
func (c *Controller) AcquireRun(ctx context.Context) bool {
	select {
	case c.run <- struct{}{}:
		return true
	case <-ctx.Done():
		return false
	}
}

// ReleaseRun returns a run slot.
func (c *Controller) ReleaseRun() { <-c.run }

// Drain stops admitting requests and waits for every in-flight one to
// finish, or for ctx to expire.  Safe to call more than once.
func (c *Controller) Drain(ctx context.Context) error {
	c.mu.Lock()
	c.draining = true
	c.mu.Unlock()
	done := make(chan struct{})
	go func() {
		c.inflight.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("drain interrupted with %d requests in flight: %w", c.gauge.Load(), ctx.Err())
	}
}

// Draining reports whether Drain has begun.
func (c *Controller) Draining() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.draining
}

// RetryAfterSeconds estimates how long a shed client should wait before the
// backlog it just bounced off has drained: backlog / recent completion
// rate, rounded up, clamped to [1, RetryAfterMax].  With no completions in
// the window there is no rate to extrapolate (an idle process that just got
// burst-filled), so it answers the 1-second floor.
func (c *Controller) RetryAfterSeconds() int {
	backlog := len(c.slots)
	done := c.completions.count(c.completions.now())
	if backlog == 0 || done == 0 {
		return 1
	}
	secs := (int64(backlog)*retryAfterSecs + done - 1) / done
	if secs < 1 {
		secs = 1
	}
	if secs > RetryAfterMax {
		secs = RetryAfterMax
	}
	return int(secs)
}

// Slots exposes the admission-token channel and Run the run-slot channel.
// They exist for composition (serve's white-box tests jam the queue by
// occupying slots directly) — treat them as the capacities they are, not as
// general-purpose channels.
func (c *Controller) Slots() chan struct{} { return c.slots }

// Run exposes the run-slot channel; see Slots.
func (c *Controller) Run() chan struct{} { return c.run }

// Gauge exposes the in-flight gauge (admitted and not yet completed).
func (c *Controller) Gauge() *atomic.Int64 { return &c.gauge }

// retryAfterSecs is RetryAfterWindow in whole seconds: the completion
// ring's length.
const retryAfterSecs = int64(RetryAfterWindow / time.Second)

// completionRing counts completed requests per second over the trailing
// RetryAfterWindow.  Slot i holds the count of a second s ≡ i (mod
// retryAfterSecs), packed as s<<32 | count with s itself, so a slot last
// written a lap ago reads as expired.  Seconds are counted from start on
// the monotonic clock, from 1 so that a zero slot is empty.  Counts are
// exact at any rate; nothing is stored per request.
type completionRing struct {
	start time.Time
	slots [retryAfterSecs]atomic.Uint64
}

// now returns the current second of the ring's clock.
func (r *completionRing) now() uint64 { return uint64(time.Since(r.start)/time.Second) + 1 }

// add counts one completion in second sec.  A completion whose slot a
// later lap already owns is older than the window and is dropped.
func (r *completionRing) add(sec uint64) {
	slot := &r.slots[sec%uint64(retryAfterSecs)]
	for {
		old := slot.Load()
		next := sec<<32 | 1
		switch at := old >> 32; {
		case at == sec:
			next = old + 1
		case at > sec:
			return
		}
		if slot.CompareAndSwap(old, next) {
			return
		}
	}
}

// count returns the completions of the retryAfterSecs seconds ending at
// sec, the current one included.
func (r *completionRing) count(sec uint64) int64 {
	var n int64
	for i := range r.slots {
		v := r.slots[i].Load()
		if at := v >> 32; at <= sec && at+uint64(retryAfterSecs) > sec {
			n += int64(v & (1<<32 - 1))
		}
	}
	return n
}
