// Package telemetry is the repository's zero-dependency observability core:
// atomic counters, read-at-scrape gauges, and log₂-bucketed
// histograms collected in a Registry, plus one span recorder, RequestTrace (tracecontext.go), that
// either retains a request's span tree or streams spans as JSONL
// (trace.go).  Every layer of the system — the theorem prover, the automata
// cache, the analysis pipeline, and the parallel sparse kernels — reports
// through it, and the CLIs surface the result via -stats and -trace-json.
//
// The package is built around a "nil is off" discipline: a nil *Set, nil
// *Registry, nil *Counter, nil *Histogram, nil *RequestTrace and
// nil *TraceWriter are all valid, disabled instruments whose methods no-op.  Hot paths hold
// pre-resolved instrument pointers and call them unconditionally; when
// telemetry is disabled those calls are a nil check and a return, with zero
// allocations (asserted by TestTelemetryDisabledAllocs and
// BenchmarkTelemetryDisabled).
package telemetry

import (
	"fmt"
	"io"
	"math/bits"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter.  A nil *Counter is a
// valid no-op instrument.
//
// Each counted quantity is one registry counter: a component resolves the
// *Counter once, holds the pointer, and readers take the value from the
// registry.  With metrics disabled the pointer is nil and an event costs a
// nil check.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 for a nil counter).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// histBuckets is the number of log₂ buckets: bucket i counts observations v
// with bits.Len64(v) == i, i.e. v in [2^(i-1), 2^i).
const histBuckets = 65

// Histogram aggregates non-negative observations (typically nanosecond
// durations) into count/sum/min/max plus log₂ buckets for rough quantiles.
// Safe for concurrent use; a nil *Histogram is a valid no-op instrument.
type Histogram struct {
	count atomic.Int64
	sum   atomic.Int64
	// minPlus1 stores min+1 so that 0 can mean "unset".
	minPlus1 atomic.Int64
	max      atomic.Int64
	buckets  [histBuckets]atomic.Int64
}

// Observe records one value.  Negative values clamp to 0.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	if v < 0 {
		v = 0
	}
	h.count.Add(1)
	h.sum.Add(v)
	for {
		cur := h.minPlus1.Load()
		if cur != 0 && v+1 >= cur {
			break
		}
		if h.minPlus1.CompareAndSwap(cur, v+1) {
			break
		}
	}
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			break
		}
	}
	h.buckets[bits.Len64(uint64(v))].Add(1)
}

// HistSummary is a point-in-time digest of a Histogram.
type HistSummary struct {
	Count int64   `json:"count"`
	Sum   int64   `json:"sum"`
	Min   int64   `json:"min"`
	Max   int64   `json:"max"`
	Mean  float64 `json:"mean"`
	// P50 and P99 are upper bounds of the log₂ bucket holding the quantile —
	// order-of-magnitude estimates, not exact order statistics.
	P50 int64 `json:"p50"`
	P99 int64 `json:"p99"`
}

// Summary digests the histogram (zero value for a nil histogram).
func (h *Histogram) Summary() HistSummary {
	if h == nil {
		return HistSummary{}
	}
	s := HistSummary{Count: h.count.Load(), Sum: h.sum.Load(), Max: h.max.Load()}
	if s.Count == 0 {
		return s
	}
	if mp := h.minPlus1.Load(); mp > 0 {
		s.Min = mp - 1
	}
	s.Mean = float64(s.Sum) / float64(s.Count)
	s.P50 = h.quantile(s.Count, 0.50)
	s.P99 = h.quantile(s.Count, 0.99)
	return s
}

// quantile returns the upper bound of the bucket containing the q-quantile.
func (h *Histogram) quantile(count int64, q float64) int64 {
	rank := int64(q * float64(count))
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i := 0; i < histBuckets; i++ {
		cum += h.buckets[i].Load()
		if cum >= rank {
			if i == 0 {
				return 0
			}
			if i >= 63 {
				return h.max.Load()
			}
			return 1<<uint(i) - 1
		}
	}
	return h.max.Load()
}

// Registry is a named collection of instruments.  Instruments are created on
// first use and live for the registry's lifetime, so hot paths resolve them
// once and then update lock-free.  A nil *Registry hands out nil (disabled)
// instruments.
//
// Counter and gauge names may carry one label set, built by Labeled:
// "route.hedge{outcome=\"won\"}" is its own instrument, rendered as a
// sample of the route.hedge family.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]func() int64
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]func() int64),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it if needed.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// GaugeFunc registers a read-at-scrape gauge: f is called whenever the
// registry is snapshotted or rendered and reads its owner's live state, so
// nothing is copied into the registry.  Registering a name again replaces
// its function.  f always runs outside the registry's lock, so it may take
// locks of its own — a cache's shard locks, say — without a scrape
// deadlocking against an owner that resolves its instruments here.
func (r *Registry) GaugeFunc(name string, f func() int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.gauges[name] = f
	r.mu.Unlock()
}

// readGauges calls every gauge function; the caller must not hold r.mu.
func (r *Registry) readGauges() map[string]int64 {
	r.mu.Lock()
	fns := make(map[string]func() int64, len(r.gauges))
	for n, f := range r.gauges {
		fns[n] = f
	}
	r.mu.Unlock()
	out := make(map[string]int64, len(fns))
	for n, f := range fns {
		out[n] = f()
	}
	return out
}

// Histogram returns the named histogram, creating it if needed.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// Snapshot is a point-in-time copy of every instrument's state.
type Snapshot struct {
	Counters map[string]int64       `json:"counters"`
	Gauges   map[string]int64       `json:"gauges,omitempty"`
	Hists    map[string]HistSummary `json:"histograms"`
}

// Snapshot captures the current state of all instruments.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters: map[string]int64{},
		Hists:    map[string]HistSummary{},
	}
	if r == nil {
		return s
	}
	if gauges := r.readGauges(); len(gauges) > 0 {
		s.Gauges = gauges
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for n, c := range r.counters {
		s.Counters[n] = c.Value()
	}
	for n, h := range r.hists {
		s.Hists[n] = h.Summary()
	}
	return s
}

// Ratio returns Counters[num]/Counters[den], reporting ok=false when the
// denominator is absent or zero.
func (s Snapshot) Ratio(num, den string) (float64, bool) {
	d := s.Counters[den]
	if d == 0 {
		return 0, false
	}
	return float64(s.Counters[num]) / float64(d), true
}

// WriteText renders the snapshot as an aligned human-readable summary,
// formatting *_ns histograms as durations.
func (s Snapshot) WriteText(w io.Writer) {
	names := func(m map[string]int64) []string {
		out := make([]string, 0, len(m))
		for n := range m {
			out = append(out, n)
		}
		sort.Strings(out)
		return out
	}
	if len(s.Counters) > 0 {
		fmt.Fprintln(w, "counters:")
		for _, n := range names(s.Counters) {
			fmt.Fprintf(w, "  %-44s %12d\n", n, s.Counters[n])
		}
	}
	if len(s.Gauges) > 0 {
		fmt.Fprintln(w, "gauges:")
		for _, n := range names(s.Gauges) {
			fmt.Fprintf(w, "  %-44s %12d\n", n, s.Gauges[n])
		}
	}
	if len(s.Hists) > 0 {
		hn := make([]string, 0, len(s.Hists))
		for n := range s.Hists {
			hn = append(hn, n)
		}
		sort.Strings(hn)
		fmt.Fprintf(w, "histograms: %32s %12s %12s %12s %12s\n", "count", "mean", "min", "max", "~p99")
		for _, n := range hn {
			h := s.Hists[n]
			if strings.HasSuffix(n, "_ns") {
				fmt.Fprintf(w, "  %-42s %10d %12v %12v %12v %12v\n", n, h.Count,
					time.Duration(h.Mean).Round(time.Microsecond),
					time.Duration(h.Min).Round(time.Microsecond),
					time.Duration(h.Max).Round(time.Microsecond),
					time.Duration(h.P99).Round(time.Microsecond))
			} else {
				fmt.Fprintf(w, "  %-42s %10d %12.1f %12d %12d %12d\n", n, h.Count, h.Mean, h.Min, h.Max, h.P99)
			}
		}
	}
}
