package telemetry

import (
	"fmt"
	"strings"
	"time"
)

// Set bundles a metrics Registry with an optional span recorder and the
// span a layer's top span parents under — the single handle threaded
// through prover.Options, analysis.Options, engine and serve, parallel.Pool
// and the CLIs, and the only carrier of trace context between them: a
// layer opens its spans on Trace under Parent and hands its callees
// Under(its span).  A nil *Set is the disabled default: every method
// no-ops and every instrument it hands out is nil (itself a no-op).
type Set struct {
	metrics *Registry
	trace   *RequestTrace
	parent  SpanID
}

// New bundles reg and tr; either may be nil to disable that half, and with
// both nil New returns the nil (disabled) Set.  The CLIs pass a streaming
// trace (-trace-json), a server each request's retaining trace.
func New(reg *Registry, tr *RequestTrace) *Set {
	if reg == nil && tr == nil {
		return nil
	}
	return &Set{metrics: reg, trace: tr}
}

// Enabled reports whether any instrumentation is active.
func (s *Set) Enabled() bool {
	return s != nil && (s.metrics != nil || s.trace != nil)
}

// Metrics returns the registry (nil when disabled).
func (s *Set) Metrics() *Registry {
	if s == nil {
		return nil
	}
	return s.metrics
}

// Trace returns the span recorder (nil when disabled).
func (s *Set) Trace() *RequestTrace {
	if s == nil {
		return nil
	}
	return s.trace
}

// Under returns a copy of s whose Parent is parent, so a layer that opens
// its top span under Parent joins the caller's span tree.
func (s *Set) Under(parent SpanID) *Set {
	if s == nil {
		return nil
	}
	c := *s
	c.parent = parent
	return &c
}

// Parent is the span a layer's top span parents under; zero (the default)
// makes it a root.
func (s *Set) Parent() SpanID {
	if s == nil {
		return SpanID{}
	}
	return s.parent
}

// Counter resolves a named counter (nil when metrics are disabled).
func (s *Set) Counter(name string) *Counter { return s.Metrics().Counter(name) }

// GaugeFunc registers a read-at-scrape gauge (a no-op when metrics are
// disabled).
func (s *Set) GaugeFunc(name string, f func() int64) { s.Metrics().GaugeFunc(name, f) }

// Histogram resolves a named histogram (nil when metrics are disabled).
func (s *Set) Histogram(name string) *Histogram { return s.Metrics().Histogram(name) }

// PhaseTiming is one completed pipeline phase.
type PhaseTiming struct {
	Name string
	Dur  time.Duration
}

// Phases times named sequential pipeline phases (parse, analyze, query, …),
// recording each as a "pipeline.phase" span and in the ordered wall-clock
// list the -stats summary prints.  Each phase's work receives the Set under
// its span, so what it builds joins the phase's tree.  Works with a nil Set
// (timings are still collected locally).  Not safe for concurrent use.
type Phases struct {
	tel *Set
	rec []PhaseTiming
}

// NewPhases returns a phase timer reporting through tel (which may be nil).
func NewPhases(tel *Set) *Phases { return &Phases{tel: tel} }

// Run times f as the named phase, handing it the phase's Set (the timer's
// Set under the phase span), and propagates its error.
func (p *Phases) Run(name string, f func(*Set) error) error {
	start := time.Now()
	sp := p.tel.Trace().StartSpanAt("pipeline.phase", p.tel.Parent(), start)
	err := f(p.tel.Under(sp.ID()))
	d := time.Since(start)
	p.rec = append(p.rec, PhaseTiming{Name: name, Dur: d})
	sp.End(String("phase", name), Bool("ok", err == nil))
	return err
}

// Timings returns the phases completed so far, in order.
func (p *Phases) Timings() []PhaseTiming { return p.rec }

// Summary renders the wall-clock-per-phase table.
func (p *Phases) Summary() string {
	var b strings.Builder
	b.WriteString("wall-clock per phase:\n")
	var total time.Duration
	for _, r := range p.rec {
		fmt.Fprintf(&b, "  %-44s %12v\n", r.Name, r.Dur.Round(time.Microsecond))
		total += r.Dur
	}
	fmt.Fprintf(&b, "  %-44s %12v\n", "total", total.Round(time.Microsecond))
	return b.String()
}
