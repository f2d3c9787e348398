package telemetry

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// FlightRecorder retains the forensic record — span tree, degradation
// profile, cache-hit profile — of the requests worth asking "why was this
// slow" about: the K slowest requests seen, plus every request that
// degraded toward Maybe via timeout, deadline, or cancellation, in a
// bounded ring.  A timed-out query and a genuinely undecidable one produce
// the same Maybe on the wire; the recorder is what keeps them
// distinguishable after the response has left the process.
//
// The fast path — a request that is neither degraded nor slower than the
// current K-th slowest — is one atomic load and a compare: no locks, no
// allocations (the record is built by a callback that only runs when the
// request is retained; guarded by TestObservabilityAllocs).  The degraded
// ring is lock-free (atomic cursor + atomic slot pointers); only the small
// K-slowest set takes a mutex, and only when a request actually qualifies.
//
// A nil *FlightRecorder is a valid, disabled recorder.

// DefaultFlightK and DefaultFlightRing size a recorder when the caller
// passes zero.
const (
	DefaultFlightK    = 8
	DefaultFlightRing = 64
)

// FlightRecord is one retained request.  Records are immutable once
// handed to Record; snapshots share them.
type FlightRecord struct {
	// TraceID and Traceparent tie the record to the request's trace.
	TraceID     string `json:"trace_id,omitempty"`
	Traceparent string `json:"traceparent,omitempty"`
	// UnixUS is the request's wall-clock start; DurUS its total latency.
	UnixUS int64 `json:"unix_us"`
	DurUS  int64 `json:"dur_us"`
	// Per-reason degraded-query counts (the interrupt guard's three cases).
	DegradedQueryTimeout    int64 `json:"degraded_query_timeout,omitempty"`
	DegradedRequestDeadline int64 `json:"degraded_request_deadline,omitempty"`
	DegradedCanceled        int64 `json:"degraded_canceled,omitempty"`
	// Spans is the request's span tree; DroppedSpans how many the
	// per-request cap discarded.
	Spans        []SpanRecord `json:"spans,omitempty"`
	DroppedSpans int          `json:"dropped_spans,omitempty"`
	// Meta carries caller-specific context (aptserved attaches the axiom
	// set, query count, status, and the request's cache-hit deltas).
	Meta any `json:"meta,omitempty"`
}

// Degraded reports whether any query of the request degraded.
func (r *FlightRecord) Degraded() bool {
	return r.DegradedQueryTimeout+r.DegradedRequestDeadline+r.DegradedCanceled > 0
}

// FlightRecorder implements the retention policy above.
type FlightRecorder struct {
	k int

	// floorUS is the duration a non-degraded request must exceed to enter
	// the K-slowest set: 0 until the set fills, then the set's minimum.
	floorUS atomic.Int64

	mu   sync.Mutex
	slow []*FlightRecord // sorted ascending by DurUS, len ≤ k

	mask    uint64
	cursor  atomic.Uint64
	ring    []atomic.Pointer[FlightRecord]
	slowRec *Counter // requests ever retained in the K-slowest set (nil: uncounted)
	degRec  *Counter // degraded requests ever retained in the ring (nil: uncounted)
}

// NewFlightRecorder keeps the k slowest requests and the last ring
// degraded requests (ring is rounded up to a power of two; zero arguments
// select the defaults).
func NewFlightRecorder(k, ring int) *FlightRecorder {
	if k <= 0 {
		k = DefaultFlightK
	}
	if ring <= 0 {
		ring = DefaultFlightRing
	}
	size := 1
	for size < ring {
		size <<= 1
	}
	return &FlightRecorder{
		k:    k,
		mask: uint64(size - 1),
		ring: make([]atomic.Pointer[FlightRecord], size),
	}
}

// Feed books the recorder's two recorded totals into the given registry
// counters (nil counts nothing, and the snapshot then reads 0).  Call it
// before recording.  Returns f for chaining.
func (f *FlightRecorder) Feed(slow, degraded *Counter) *FlightRecorder {
	f.slowRec, f.degRec = slow, degraded
	return f
}

// K returns the slowest-request retention count (0 for a nil recorder).
func (f *FlightRecorder) K() int {
	if f == nil {
		return 0
	}
	return f.k
}

// RingSize returns the degraded-request ring capacity.
func (f *FlightRecorder) RingSize() int {
	if f == nil {
		return 0
	}
	return len(f.ring)
}

// Record offers one finished request.  build is invoked — once — only when
// the request qualifies for retention, so callers can defer assembling the
// span tree and metadata off the fast path.  degraded requests are always
// retained (in the ring); others only when dur beats the current K-th
// slowest.
func (f *FlightRecorder) Record(dur time.Duration, degraded bool, build func() *FlightRecord) {
	if f == nil {
		return
	}
	durUS := dur.Microseconds()
	if !degraded && durUS < f.floorUS.Load() {
		return // fast path: one atomic load, no allocation
	}
	rec := build()
	if rec == nil {
		return
	}
	rec.DurUS = durUS
	if degraded {
		f.degRec.Add(1)
		f.ring[(f.cursor.Add(1)-1)&f.mask].Store(rec)
	}
	f.mu.Lock()
	// Re-check under the lock: the floor may have risen since the gate.
	if len(f.slow) == f.k && durUS < f.slow[0].DurUS {
		f.mu.Unlock()
		return
	}
	f.slowRec.Add(1)
	i := sort.Search(len(f.slow), func(i int) bool { return f.slow[i].DurUS >= durUS })
	f.slow = append(f.slow, nil)
	copy(f.slow[i+1:], f.slow[i:])
	f.slow[i] = rec
	if len(f.slow) > f.k {
		f.slow = f.slow[1:]
	}
	if len(f.slow) == f.k {
		f.floorUS.Store(f.slow[0].DurUS)
	}
	f.mu.Unlock()
}

// FlightSnapshot is the recorder's state: slowest requests (slowest
// first), the retained degraded requests (most recent first), and how many
// of each kind were ever recorded (the ring forgets, the counters do not;
// the totals read the registry counters given to Feed, 0 without them).
type FlightSnapshot struct {
	K                int             `json:"k"`
	RingSize         int             `json:"ring_size"`
	SlowRecorded     int64           `json:"slow_recorded"`
	DegradedRecorded int64           `json:"degraded_recorded"`
	Slowest          []*FlightRecord `json:"slowest"`
	Degraded         []*FlightRecord `json:"degraded"`
}

// Snapshot copies the recorder's current state (zero value when nil).
// Returned records are shared and must not be mutated.
func (f *FlightRecorder) Snapshot() FlightSnapshot {
	if f == nil {
		return FlightSnapshot{}
	}
	s := FlightSnapshot{
		K:                f.k,
		RingSize:         len(f.ring),
		SlowRecorded:     f.slowRec.Value(),
		DegradedRecorded: f.degRec.Value(),
	}
	f.mu.Lock()
	s.Slowest = make([]*FlightRecord, 0, len(f.slow))
	for i := len(f.slow) - 1; i >= 0; i-- {
		s.Slowest = append(s.Slowest, f.slow[i])
	}
	f.mu.Unlock()
	cur := f.cursor.Load()
	n := uint64(len(f.ring))
	if cur < n {
		n = cur
	}
	for i := uint64(0); i < n; i++ {
		if rec := f.ring[(cur-1-i)&f.mask].Load(); rec != nil {
			s.Degraded = append(s.Degraded, rec)
		}
	}
	return s
}
