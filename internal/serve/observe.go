package serve

import (
	"net/http"
	"time"

	"repro/internal/telemetry"
	"repro/internal/wire"
)

// This file is the server's observability surface: the statusWriter that
// feeds the structured access log, the flight-recorder hookup, and the
// metrics endpoints, which render the telemetry registry and nothing else.

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
// tree: what ran and how long it took.  Cache totals are the registry's;
// the caches are shared, so no per-request figure is kept for them.
type flightMeta struct {
	Status    int    `json:"status"`
	AxiomSet  string `json:"axiom_set,omitempty"`
	Queries   int    `json:"queries"`
	ElapsedUS int64  `json:"elapsed_us"`
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

// handleMetrics serves the telemetry registry as Prometheus text
// exposition; /metrics.json serves the same registry as a JSON snapshot.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.tel.Metrics().WritePrometheus(w) //nolint:errcheck // client hangup
}

func (s *Server) handleMetricsJSON(w http.ResponseWriter, r *http.Request) {
	wire.WriteJSON(w, http.StatusOK, s.tel.Metrics().Snapshot())
}

func (s *Server) handleFlightRecorder(w http.ResponseWriter, r *http.Request) {
	wire.WriteJSON(w, http.StatusOK, s.FlightSnapshot())
}
