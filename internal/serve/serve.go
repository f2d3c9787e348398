// Package serve is the long-lived dependence-query service behind cmd/
// aptserved.  One process keeps the expensive analysis state — compiled
// DFAs in an automata.SharedCache, prover verdicts in a core.Memo, one of
// each for the whole process — warm across every request, which is the
// amortization the paper's §5 evaluation argues makes APT practical at
// compile-server scale: the first request over an axiom set pays the
// subset constructions, every later one rides the caches.
//
// Since the layering refactor the package is a thin composition of the
// query plane's tiers rather than their home:
//
//   - internal/wire — the request/response vocabulary and JSON helpers,
//     shared with clients and the cluster router;
//   - internal/admit — the two-channel slots/queue/429 admission machinery
//     and the drain lifecycle;
//   - internal/exec — the process's one engine and the DFA cache and proof
//     memo it borrows, and the request table that builds a request's
//     queries, raw or program mode, and keeps them.
//
// What remains here is the composition itself: HTTP endpoint wiring,
// request checks, and tracing/flight-recorder/access-log plumbing.  The
// cluster router (internal/route) is the other composition of the same
// tiers — admission in front of forwarding instead of execution.
//
// Robustness is the other half of the design:
//
//   - admission control: a bounded queue in front of a bounded set of run
//     slots; a full queue sheds load with 429 + Retry-After instead of
//     queueing unboundedly;
//   - deadlines: every request runs under a server-capped deadline that
//     propagates into the engine's interrupt guard, so a slow proof search
//     degrades that query to Maybe instead of wedging a worker;
//   - bounded caches: the per-shard caps on the pool's DFA cache, decision
//     memo, and proof memo keep a long-lived process's memory flat;
//   - graceful drain: SIGTERM stops admissions while every in-flight batch
//     finishes and is answered;
//   - panic isolation: a worker panic (re-raised by parallel.Pool as
//     *parallel.WorkerPanic) becomes one 500, not a dead process.
package serve

import (
	"context"
	"fmt"
	"net/http"
	"runtime"
	"strconv"
	"time"

	"repro/internal/admit"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/parallel"
	"repro/internal/pathexpr"
	"repro/internal/telemetry"
	"repro/internal/wire"
)

// Default limits; every one of them exists to keep a long-lived process
// bounded, so "0 = unlimited" is deliberately not offered where a limit
// guards memory.
const (
	DefaultQueryTimeout = 2 * time.Second
	DefaultMaxDeadline  = 30 * time.Second
	DefaultQueueDepth   = 64
	DefaultShardCap     = 512
	DefaultMaxQueries   = 4096
	DefaultMaxBodyBytes = 1 << 20
)

// Config sizes a Server.  The zero value selects the defaults above, one
// run slot per GOMAXPROCS, and a single-worker engine.
type Config struct {
	// Workers is the engine's pool width (minimum 1).
	Workers int
	// QueryTimeout is the default per-query proof-search bound; a request
	// may lower or raise it up to MaxDeadline via timeout_ms.
	QueryTimeout time.Duration
	// MaxDeadline caps (and defaults) the whole-request deadline.
	MaxDeadline time.Duration
	// MaxConcurrent is the number of requests answered at once (default
	// GOMAXPROCS); QueueDepth is how many admitted requests may wait for a
	// run slot before the server sheds with 429.
	MaxConcurrent int
	QueueDepth    int
	// Deprecated: ignored; set only by perfbench, removed by the benchmark PR that replaces raw-churn.
	MaxEngines int
	// DFAShardCap and MemoShardCap bound the shards of the process's DFA
	// cache and proof memo (see automata.SharedCache and core.Memo).
	DFAShardCap  int
	MemoShardCap int
	// MaxQueries bounds the expanded query count of one request;
	// MaxBodyBytes bounds the request body.
	MaxQueries   int
	MaxBodyBytes int64
	// VerifyProofs re-checks every prover-backed No independently.
	VerifyProofs bool
	// Telemetry receives every layer's counters and gauges and is what
	// /metrics and /metrics.json render (nil disables both).
	Telemetry *telemetry.Set
	// FlightK and FlightRing size the flight recorder: the K slowest
	// requests plus a ring of the last FlightRing degraded requests, served
	// at /debug/flightrecorder (zero selects telemetry.DefaultFlightK and
	// DefaultFlightRing).
	FlightK    int
	FlightRing int
	// AccessLog, when non-nil, receives one JSONL "http_access" line per
	// HTTP request (method, path, status, bytes, latency, traceparent).
	AccessLog *telemetry.TraceWriter
}

func (c Config) withDefaults() Config {
	if c.Workers < 1 {
		c.Workers = 1
	}
	if c.QueryTimeout <= 0 {
		c.QueryTimeout = DefaultQueryTimeout
	}
	if c.MaxDeadline <= 0 {
		c.MaxDeadline = DefaultMaxDeadline
	}
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = defaultConcurrency()
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = DefaultQueueDepth
	}
	if c.DFAShardCap <= 0 {
		c.DFAShardCap = DefaultShardCap
	}
	if c.MemoShardCap <= 0 {
		c.MemoShardCap = DefaultShardCap
	}
	if c.MaxQueries <= 0 {
		c.MaxQueries = DefaultMaxQueries
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = DefaultMaxBodyBytes
	}
	return c
}

// poolConfig projects the server config onto the execution tier's.
func (c Config) poolConfig() exec.PoolConfig {
	return exec.PoolConfig{
		Workers:      c.Workers,
		QueryTimeout: c.QueryTimeout,
		MaxEngines:   c.MaxEngines,
		DFAShardCap:  c.DFAShardCap,
		MemoShardCap: c.MemoShardCap,
		VerifyProofs: c.VerifyProofs,
	}
}

// Server answers dependence-query batches over one warm engine.
// It implements http.Handler; cmd/aptserved wires it into an http.Server
// and the signal lifecycle.
type Server struct {
	cfg  Config
	tel  *telemetry.Set
	adm  *admit.Controller
	pool *exec.Pool
	mux  *http.ServeMux

	flight *telemetry.FlightRecorder
	access *telemetry.TraceWriter

	panics       *telemetry.Counter // serve.panics
	degradedReqs *telemetry.Counter // serve.degraded_requests: requests with ≥1 degraded query

	hRequestNS *telemetry.Histogram
	hQueueNS   *telemetry.Histogram
}

// New builds a Server from the config.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	tel := cfg.Telemetry
	s := &Server{
		cfg: cfg,
		tel: tel,
		// The admission controller's lifecycle counts and in-flight gauge
		// report as serve.requests, .completed, .shed, .refused_draining
		// and .inflight.
		adm:  admit.New(cfg.MaxConcurrent, cfg.QueueDepth).Feed(tel, "serve"),
		pool: exec.NewPool(cfg.poolConfig(), tel),
		mux:  http.NewServeMux(),
		flight: telemetry.NewFlightRecorder(cfg.FlightK, cfg.FlightRing).
			Feed(tel.Counter("serve.flight_slow_recorded"), tel.Counter("serve.flight_degraded_recorded")),
		access:       cfg.AccessLog,
		panics:       tel.Counter("serve.panics"),
		degradedReqs: tel.Counter("serve.degraded_requests"),
		hRequestNS:   tel.Histogram("serve.request_ns"),
		hQueueNS:     tel.Histogram("serve.queue_wait_ns"),
	}
	start := time.Now()
	tel.GaugeFunc("serve.uptime_seconds", func() int64 { return int64(time.Since(start).Seconds()) })
	// The interner underlies every cache key in the stack and is never
	// evicted (node IDs must stay stable), so this is the one monotone
	// size to watch for expression-churn growth.
	tel.GaugeFunc("serve.interned_exprs", func() int64 { return int64(pathexpr.InternedExprs()) })
	s.mux.HandleFunc("/v1/batch", s.handleBatch)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/metrics.json", s.handleMetricsJSON)
	s.mux.HandleFunc("/debug/flightrecorder", s.handleFlightRecorder)
	return s
}

// ServeHTTP dispatches with panic isolation: a panic below (including a
// *parallel.WorkerPanic re-raised out of an engine pool) answers 500 and
// the server keeps serving.  Every request — panicking ones included —
// gets one access-log line on the way out.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	sw := &statusWriter{ResponseWriter: w}
	start := time.Now()
	defer func() {
		if rec := recover(); rec != nil {
			s.panics.Add(1)
			msg := "internal error"
			if wp, ok := rec.(*parallel.WorkerPanic); ok {
				msg = fmt.Sprintf("worker panic: %v", wp.Value)
			}
			// Best effort: if the handler already wrote a partial body this
			// write fails silently, which is all HTTP offers.
			wire.WriteJSONError(sw, http.StatusInternalServerError, msg)
		}
		s.logAccess(sw, r, time.Since(start))
	}()
	s.mux.ServeHTTP(sw, r)
}

// Drain stops admitting requests and waits for every in-flight one to be
// answered, or for ctx to expire.  Safe to call more than once.
func (s *Server) Drain(ctx context.Context) error { return s.adm.Drain(ctx) }

// Draining reports whether Drain has begun.
func (s *Server) Draining() bool { return s.adm.Draining() }

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		wire.WriteJSONError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	// Join the caller's trace (W3C traceparent) or mint a fresh one, and
	// answer with the trace id plus this request's root span so the caller
	// can correlate — the header goes out even on shed/refused answers.
	tc, joined := telemetry.ParseTraceparent(r.Header.Get("traceparent"))
	if !joined {
		tc = telemetry.NewTraceContext()
	}
	rt := telemetry.NewRequestTrace(tc)
	root := rt.StartSpan("serve.request", tc.SpanID)
	w.Header().Set("traceparent",
		telemetry.TraceContext{TraceID: tc.TraceID, SpanID: root.ID(), Flags: tc.Flags}.Traceparent())
	// Admission: a token covers both the run slot and the bounded queue in
	// front of it.  No token free means MaxConcurrent+QueueDepth requests
	// are already in the building — shed immediately rather than letting
	// the queue (and every client's latency) grow without bound.
	if !s.adm.TryAcquire() {
		w.Header().Set("Retry-After", strconv.Itoa(s.adm.RetryAfterSeconds()))
		wire.WriteJSONError(w, http.StatusTooManyRequests, "admission queue full; retry")
		return
	}
	defer s.adm.Release()
	if !s.adm.Begin() {
		wire.WriteJSONError(w, http.StatusServiceUnavailable, "server draining")
		return
	}
	startWait := time.Now()
	var meta *flightMeta
	defer func() {
		dur := time.Since(startWait)
		s.adm.Finish()
		s.hRequestNS.Observe(dur.Nanoseconds())
		root.End()
		s.recordFlight(w, rt, startWait, dur, meta)
	}()

	// Wait for a run slot.  Admitted requests finish even during a drain;
	// only the client hanging up aborts the wait.
	qsp := rt.StartSpan("serve.admission", root.ID())
	if !s.adm.AcquireRun(r.Context()) {
		wire.WriteJSONError(w, http.StatusServiceUnavailable, "client canceled while queued")
		return
	}
	defer s.adm.ReleaseRun()
	s.hQueueNS.Observe(time.Since(startWait).Nanoseconds())
	qsp.End()

	var req wire.BatchRequest
	body, err := wire.ReadBody(w, r, s.cfg.MaxBodyBytes)
	if err == nil {
		err = wire.DecodeRequest(body, &req)
	}
	if err != nil {
		wire.WriteBodyError(w, "bad request body", err)
		return
	}
	resp, m, code, err := s.answer(r.Context(), &req, telemetry.New(s.tel.Metrics(), rt).Under(root.ID()))
	meta = m
	if err != nil {
		wire.WriteJSONError(w, code, err.Error())
		return
	}
	wire.WriteResponse(w, http.StatusOK, resp)
}

// answer runs one decoded batch request; it returns the flight-recorder
// metadata (nil on error) and an HTTP status code alongside any error.
// set is the request's Set: the server's registry and the request's
// retaining trace, under the request's root span.  Every span of the
// request opens from it — answer's own under set.Parent(), and the
// analysis and the engine batch each from set.Under(the span they run in).
func (s *Server) answer(ctx context.Context, req *wire.BatchRequest, set *telemetry.Set) (*wire.BatchResponse, *flightMeta, int, error) {
	// Verification is a server-wide setting; a request asking for it from
	// a server that does not verify must not get unverified Nos.
	if req.Verify && !s.cfg.VerifyProofs {
		return nil, nil, http.StatusBadRequest, fmt.Errorf("verify requested, but this server does not verify proofs (start it with -verify)")
	}
	if len(req.Raw) > 0 {
		return s.answerRaw(ctx, req, set)
	}
	if len(req.Queries) == 0 {
		return nil, nil, http.StatusBadRequest, fmt.Errorf("no queries")
	}
	svc0 := time.Now()
	// The front end resolves through the pool's request table: a request
	// whose program, fn, assume_invariants and query lines were expanded
	// before is not parsed or analysed again, and the serve.analyze span's
	// analyzed attribute says whether this one was.  An analysis reports
	// into this request's trace, under serve.analyze.
	asp := set.Trace().StartSpan("serve.analyze", set.Parent())
	prog, analyzed, err := s.pool.Queries(req, s.cfg.MaxQueries, set.Under(asp.ID()))
	if err != nil {
		return nil, nil, http.StatusBadRequest, err
	}
	queries := prog.Queries
	if len(queries) > s.cfg.MaxQueries {
		return nil, nil, http.StatusRequestEntityTooLarge,
			fmt.Errorf("%d expanded queries exceed the per-request limit of %d", len(queries), s.cfg.MaxQueries)
	}
	asp.End(telemetry.String("fn", prog.Fn), telemetry.Int("queries", len(queries)),
		telemetry.Int("analyzed", analyzed))
	return s.runBatch(ctx, req, set, prog, svc0)
}

// answerRaw runs a raw-mode request: the axiom set arrives as text and the
// queries fully specified, so analysis is skipped entirely.  This is the
// path routed cluster traffic takes when the client already holds analysis
// results (and the differential suite's way of replaying engine workloads
// through HTTP byte-identically).  The request resolves through the
// pool's request table, so one sent before whole is not parsed again; the
// serve.rawparse span's parsed attribute says whether this one was.
func (s *Server) answerRaw(ctx context.Context, req *wire.BatchRequest, set *telemetry.Set) (*wire.BatchResponse, *flightMeta, int, error) {
	if len(req.Queries) > 0 || req.Program != "" {
		return nil, nil, http.StatusBadRequest, fmt.Errorf("raw queries exclude program/queries fields")
	}
	if len(req.Raw) > s.cfg.MaxQueries {
		return nil, nil, http.StatusRequestEntityTooLarge,
			fmt.Errorf("%d raw queries exceed the per-request limit of %d", len(req.Raw), s.cfg.MaxQueries)
	}
	svc0 := time.Now()
	asp := set.Trace().StartSpan("serve.rawparse", set.Parent())
	prog, parsed, err := s.pool.Queries(req, s.cfg.MaxQueries, set.Under(asp.ID()))
	if err != nil {
		return nil, nil, http.StatusBadRequest, err
	}
	asp.End(telemetry.String("axiom_set", prog.Axioms.StructName), telemetry.Int("queries", len(prog.Queries)),
		telemetry.Int("parsed", parsed))
	return s.runBatch(ctx, req, set, prog, svc0)
}

// runBatch is the shared tail of both request modes: run the program's
// queries on the pool's engine under the request deadline, and assemble
// the response from the program's rows and the flight metadata.
func (s *Server) runBatch(ctx context.Context, req *wire.BatchRequest, set *telemetry.Set,
	prog *exec.Program, svc0 time.Time) (*wire.BatchResponse, *flightMeta, int, error) {

	deadline := wire.ClampMS(req.DeadlineMS, s.cfg.MaxDeadline)
	perQuery := s.cfg.QueryTimeout
	if req.TimeoutMS > 0 {
		perQuery = wire.ClampMS(req.TimeoutMS, s.cfg.MaxDeadline)
	}
	bctx, cancel := context.WithTimeout(ctx, deadline)
	defer cancel()
	rt := set.Trace()
	bsp := rt.StartSpan("serve.batch", set.Parent())

	ax := prog.Axioms
	start := time.Now()
	outs := s.pool.Batch(bctx, prog.Queries, perQuery, set.Under(bsp.ID()))
	elapsed := time.Since(start)
	bsp.End(
		telemetry.String("axiom_set", ax.StructName),
		telemetry.Int("queries", len(outs)),
	)

	resp := &wire.BatchResponse{Results: make([]wire.QueryResult, len(outs))}
	for i, out := range outs {
		r := &resp.Results[i]
		*r = prog.Rows[i]
		r.Result, r.Kind, r.Reason = out.Result.String(), out.Kind.String(), out.Reason
		if out.Result != core.No {
			resp.Dependent = true
		}
	}
	deg := rt.DegradedCounts()
	resp.Stats = wire.BatchStats{
		Queries:         len(outs),
		ElapsedUS:       elapsed.Microseconds(),
		ServiceUS:       time.Since(svc0).Microseconds(),
		AxiomSet:        ax.StructName,
		Timeouts:        deg[telemetry.DegradeQueryTimeout],
		TraceID:         rt.TraceIDString(),
		DegradedQueries: rt.DegradedTotal(),
		DeadlineExpired: deg[telemetry.DegradeRequestDeadline],
	}
	meta := &flightMeta{
		AxiomSet:  ax.StructName,
		Queries:   len(outs),
		ElapsedUS: elapsed.Microseconds(),
	}
	return resp, meta, http.StatusOK, nil
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.Draining() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func defaultConcurrency() int {
	n := runtime.GOMAXPROCS(0)
	if n < 1 {
		n = 1
	}
	return n
}
