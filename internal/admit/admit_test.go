package admit

import (
	"sync"
	"testing"
)

// TestConcurrentFinishCountsExact: completions finishing at once from many
// goroutines are each counted once in the Retry-After window, whatever
// the rate.
func TestConcurrentFinishCountsExact(t *testing.T) {
	const workers, each = 16, 1000
	c := New(1, 0)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if !c.Begin() {
					t.Error("Begin refused on a controller that is not draining")
					return
				}
				c.Finish()
			}
		}()
	}
	wg.Wait()
	if got := c.completions.count(c.completions.now()); got != workers*each {
		t.Errorf("window counts %d completions, want %d", got, workers*each)
	}
}

// TestCompletionRingExpiry: a second's completions count for
// retryAfterSecs seconds and then expire.
func TestCompletionRingExpiry(t *testing.T) {
	var r completionRing
	if got := r.count(1); got != 0 {
		t.Errorf("empty ring counts %d", got)
	}
	for i := 0; i < 5; i++ {
		r.add(1)
	}
	for i := 0; i < 3; i++ {
		r.add(5)
	}
	for _, c := range []struct {
		sec  uint64
		want int64
	}{{1, 5}, {5, 8}, {10, 8}, {11, 3}, {14, 3}, {15, 0}} {
		if got := r.count(c.sec); got != c.want {
			t.Errorf("count at second %d = %d, want %d", c.sec, got, c.want)
		}
	}
}

// TestCompletionRingWrap: a slot reused a lap later starts from zero, and a
// completion stamped a lap behind its slot is dropped.
func TestCompletionRingWrap(t *testing.T) {
	var r completionRing
	for i := 0; i < 5; i++ {
		r.add(1)
	}
	for i := 0; i < 3; i++ {
		r.add(5)
	}
	r.add(11) // second 1's slot, a lap on
	if got := r.count(11); got != 4 {
		t.Errorf("count after reusing a slot = %d, want 4 (3 + 1, second 1 gone)", got)
	}
	r.add(1) // a lap behind the slot's owner
	if got := r.count(11); got != 4 {
		t.Errorf("count after a stale completion = %d, want 4", got)
	}
}

// TestRetryAfterAllocations: answering a shed request allocates nothing,
// even with a full backlog and a busy window.
func TestRetryAfterAllocations(t *testing.T) {
	c := New(4, 4092)
	for i := 0; i < cap(c.slots); i++ {
		c.slots <- struct{}{}
	}
	for i := 0; i < 10000; i++ {
		c.Begin()
		c.Finish()
	}
	if got := testing.AllocsPerRun(1000, func() { _ = c.RetryAfterSeconds() }); got != 0 {
		t.Errorf("RetryAfterSeconds allocates %.1f per call, want 0", got)
	}
}
