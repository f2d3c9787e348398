package serve

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"time"

	"repro/internal/pathexpr"
	"repro/internal/telemetry"
	"repro/internal/wire"
)

// This file is the server's observability surface: the statusWriter that
// feeds the structured access log, the flight-recorder hookup, and the
// Prometheus rendering of the server-level and per-axiom-set state that
// lives outside the telemetry registry (admission counts, pool contents,
// split degraded counters).

// statusWriter records the status code and body size a handler produced,
// for the access log and the flight recorder's metadata.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(b)
	w.bytes += int64(n)
	return n, err
}

// Status returns the written status (200 when the handler never set one).
func (w *statusWriter) Status() int {
	if w.status == 0 {
		return http.StatusOK
	}
	return w.status
}

// logAccess emits one structured access-log line (JSONL via TraceWriter);
// a nil access writer disables it.
func (s *Server) logAccess(sw *statusWriter, r *http.Request, dur time.Duration) {
	if s.access == nil {
		return
	}
	s.access.Emit("http_access",
		telemetry.String("method", r.Method),
		telemetry.String("path", r.URL.Path),
		telemetry.Int("status", sw.Status()),
		telemetry.Int64("bytes", sw.bytes),
		telemetry.DurUS("dur_us", dur),
		telemetry.String("remote", r.RemoteAddr),
		telemetry.String("traceparent", sw.Header().Get("traceparent")),
	)
}

// flightMeta is the request context a FlightRecord carries beyond its span
// tree: what ran, where, and the request's cache-hit deltas on the engine
// pool's caches (best-effort under concurrency — the caches are shared, so
// a neighbor's hits can leak into the delta).
type flightMeta struct {
	Status      int    `json:"status"`
	AxiomSet    string `json:"axiom_set,omitempty"`
	Queries     int    `json:"queries"`
	ColdEngine  bool   `json:"cold_engine,omitempty"`
	ElapsedUS   int64  `json:"elapsed_us"`
	MemoHits    int64  `json:"memo_hits"`
	MemoLookups int64  `json:"memo_lookups"`
	DFAHits     int64  `json:"dfa_hits"`
	DFALookups  int64  `json:"dfa_lookups"`
}

// recordFlight offers the finished request to the flight recorder.  The
// record — span tree included — is only assembled when the recorder keeps
// it (slow or degraded), so the common fast request costs one atomic load.
func (s *Server) recordFlight(w http.ResponseWriter, rt *telemetry.RequestTrace, start time.Time, dur time.Duration, meta *flightMeta) {
	deg := rt.DegradedCounts()
	degraded := deg[telemetry.DegradeQueryTimeout]+deg[telemetry.DegradeRequestDeadline]+deg[telemetry.DegradeCanceled] > 0
	if degraded {
		s.degradedReqs.Add(1)
	}
	s.flight.Record(dur, degraded, func() *telemetry.FlightRecord {
		rec := &telemetry.FlightRecord{
			TraceID:                 rt.TraceIDString(),
			Traceparent:             w.Header().Get("traceparent"),
			UnixUS:                  start.UnixMicro(),
			DegradedQueryTimeout:    deg[telemetry.DegradeQueryTimeout],
			DegradedRequestDeadline: deg[telemetry.DegradeRequestDeadline],
			DegradedCanceled:        deg[telemetry.DegradeCanceled],
			Spans:                   rt.Spans(),
			DroppedSpans:            rt.DroppedSpans(),
		}
		if meta != nil {
			m := *meta
			if sw, ok := w.(*statusWriter); ok {
				m.Status = sw.Status()
			} else {
				m.Status = http.StatusOK
			}
			rec.Meta = m
		}
		return rec
	})
}

// FlightSnapshot copies the flight recorder's current state (exported for
// cmd/aptserved's SIGQUIT dump and the soak tests).
func (s *Server) FlightSnapshot() telemetry.FlightSnapshot {
	return s.flight.Snapshot()
}

// handleMetrics serves Prometheus text exposition: the telemetry registry's
// instruments plus the server-level families below.  The JSON snapshot the
// endpoint used to serve lives at /metrics.json.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.tel.Metrics().WritePrometheus(w) //nolint:errcheck // client hangup
	s.writePromServer(w)
}

func (s *Server) handleMetricsJSON(w http.ResponseWriter, r *http.Request) {
	wire.WriteJSON(w, http.StatusOK, s.tel.Metrics().Snapshot())
}

func (s *Server) handleFlightRecorder(w http.ResponseWriter, r *http.Request) {
	wire.WriteJSON(w, http.StatusOK, s.FlightSnapshot())
}

// writePromServer renders the state that lives outside the registry:
// admission/lifecycle counters, the flight recorder's totals, the
// degraded-query counters split by reason, and per-axiom-set engine
// families labeled with the set they serve.
func (s *Server) writePromServer(w io.Writer) {
	bw := bufio.NewWriter(w)
	counter := func(name, help string, v int64) {
		fmt.Fprintf(bw, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	gauge := func(name, help string, v int64) {
		fmt.Fprintf(bw, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n", name, help, name, name, v)
	}
	accepted, completed, shed, refused := s.adm.Counts()
	counter("apt_server_accepted_total", "Requests admitted.", accepted)
	counter("apt_server_completed_total", "Requests answered.", completed)
	counter("apt_server_shed_total", "Requests shed with 429 by admission control.", shed)
	counter("apt_server_refused_draining_total", "Requests refused because the server was draining.", refused)
	counter("apt_server_panics_total", "Handler panics isolated into 500s.", s.panics.Value())
	counter("apt_server_degraded_requests_total", "Requests with at least one query degraded toward Maybe.", s.degradedReqs.Load())
	counter("apt_server_engines_evicted_total", "Warm engines reclaimed by the pool LRU.", s.pool.Evicted())
	gauge("apt_server_inflight", "Requests admitted and not yet completed.", s.gauge.Load())
	gauge("apt_server_uptime_seconds", "Seconds since the server started.", int64(time.Since(s.start).Seconds()))
	gauge("apt_server_engines_resident", "Warm engines resident in the pool.", int64(s.pool.Len()))
	gauge("apt_interned_exprs", "Distinct interned path expressions (never evicted).", int64(pathexpr.InternedExprs()))

	fl := s.flight.Snapshot()
	counter("apt_flight_slow_recorded_total", "Requests retained by the K-slowest flight recorder.", fl.SlowRecorded)
	counter("apt_flight_degraded_recorded_total", "Degraded requests retained by the flight-recorder ring.", fl.DegradedRecorded)

	// Degraded queries split by the interrupt guard's three reasons, summed
	// across resident engines (an evicted engine takes its counts with it;
	// the registry's engine.degraded.* counters are the process-lifetime
	// view).
	views := s.pool.Snapshot()
	statz := make([]EngineStatz, len(views))
	var byReason [telemetry.NumDegradeReasons]int64
	for i, v := range views {
		statz[i] = engineStatz(v)
		byReason[telemetry.DegradeQueryTimeout] += statz[i].Timeouts
		byReason[telemetry.DegradeRequestDeadline] += statz[i].DeadlineExpired
		byReason[telemetry.DegradeCanceled] += statz[i].Canceled
	}
	fmt.Fprintf(bw, "# HELP apt_degraded_total Queries degraded toward Maybe on resident engines, by reason.\n# TYPE apt_degraded_total counter\n")
	for reason := telemetry.DegradeReason(0); reason < telemetry.NumDegradeReasons; reason++ {
		fmt.Fprintf(bw, "apt_degraded_total{reason=%q} %d\n", reason.String(), byReason[reason])
	}

	type setMetric struct {
		name, help string
		value      func(EngineStatz) int64
	}
	for _, m := range []setMetric{
		{"apt_engine_set_uses_total", "Requests served by the axiom set's engine.", func(z EngineStatz) int64 { return z.Uses }},
		{"apt_engine_set_queries_total", "Queries answered by the axiom set's engine.", func(z EngineStatz) int64 { return z.Queries }},
	} {
		fmt.Fprintf(bw, "# HELP %s %s\n# TYPE %s counter\n", m.name, m.help, m.name)
		for i, v := range views {
			fmt.Fprintf(bw, "%s{axiom_set=\"%s\"} %d\n", m.name, telemetry.PromEscapeLabel(v.Name), m.value(statz[i]))
		}
	}
	bw.Flush() //nolint:errcheck // client hangup
}
