// Package serve is the long-lived dependence-query service behind cmd/
// aptserved.  One process keeps the expensive analysis state — compiled
// DFAs in an automata.SharedCache, prover verdicts in a core.Memo, one of
// each for the whole engine pool — warm across every request, which is the
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
//   - internal/exec — the bounded pool of warm per-axiom-set engines and
//     the DFA cache and proof memo they share, the raw-query builder, and
//     warm-state snapshot/preload.
//
// What remains here is the composition itself: HTTP endpoint wiring, the
// program-mode analysis pipeline, tracing/flight-recorder/access-log
// plumbing, and process warmup.  The cluster router (internal/route) is the
// other composition of the same tiers — admission in front of forwarding
// instead of execution.
//
// Robustness is the other half of the design:
//
//   - admission control: a bounded queue in front of a bounded set of run
//     slots; a full queue sheds load with 429 + Retry-After instead of
//     queueing unboundedly;
//   - deadlines: every request runs under a server-capped deadline that
//     propagates into the engine's interrupt guard, so a slow proof search
//     degrades that query to Maybe instead of wedging a worker;
//   - per-axiom-set engines with LRU reclamation: unfamiliar axiom sets
//     get their own engine, and the population is bounded; the caches they
//     borrow are the pool's, so an evicted engine's warm state survives;
//   - bounded caches: the per-shard caps on the pool's DFA cache, decision
//     memo, and proof memo keep a long-lived process's memory flat;
//   - graceful drain: SIGTERM stops admissions while every in-flight batch
//     finishes and is answered;
//   - panic isolation: a worker panic (re-raised by parallel.Pool as
//     *parallel.WorkerPanic) becomes one 500, not a dead process.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/admit"
	"repro/internal/analysis"
	"repro/internal/automata"
	"repro/internal/axiom"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/exec"
	"repro/internal/lang"
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
	DefaultMaxEngines   = 8
	DefaultShardCap     = 512
	DefaultMaxQueries   = 4096
	DefaultMaxBodyBytes = 1 << 20
)

// Config sizes a Server.  The zero value selects the defaults above, one
// run slot per GOMAXPROCS, and a single-worker engine pool per axiom set.
type Config struct {
	// Workers is each engine's pool width (minimum 1).
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
	// MaxEngines bounds the per-axiom-set engine population (LRU beyond).
	MaxEngines int
	// DFAShardCap and MemoShardCap bound the shards of the engine pool's
	// DFA cache and proof memo (see automata.SharedCache and core.Memo).
	DFAShardCap  int
	MemoShardCap int
	// MaxQueries bounds the expanded query count of one request;
	// MaxBodyBytes bounds the request body.
	MaxQueries   int
	MaxBodyBytes int64
	// VerifyProofs re-checks every prover-backed No independently.
	VerifyProofs bool
	// Telemetry receives every layer's counters and feeds /metrics (nil
	// disables; /metrics then serves only the server-level families).
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
	// Preload, when non-nil, preseeds the engine pool's caches with a
	// compiled automata artifact (see cmd/aptc) and builds an engine for
	// each axiom set it carries, so even a cold engine's first batch rides
	// warm DFA tables, memoized decisions, and proof goals.
	Preload *automata.Artifact
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
	if c.MaxEngines <= 0 {
		c.MaxEngines = DefaultMaxEngines
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
		Preload:      c.Preload,
	}
}

// enginePool adapts exec.Pool to the package-local names the server (and
// its white-box tests) grew up with.
type enginePool struct{ *exec.Pool }

func (p enginePool) get(ax *axiom.Set) (*engine.Engine, bool) { return p.Get(ax) }
func (p enginePool) len() int                                 { return p.Len() }
func (p enginePool) snapshot() []exec.View                    { return p.Snapshot() }

// Server answers dependence-query batches over warm per-axiom-set engines.
// It implements http.Handler; cmd/aptserved wires it into an http.Server
// and the signal lifecycle.
type Server struct {
	cfg  Config
	tel  *telemetry.Set
	adm  *admit.Controller
	pool enginePool
	mux  *http.ServeMux

	// White-box views into the admission controller — the same channel,
	// gauge, and completion-window objects adm owns, not copies.  The
	// package's tests jam the queue and seed the Retry-After estimator
	// through them.
	slots       chan struct{} // admission tokens: run slots + bounded queue
	run         chan struct{} // run slots
	gauge       *atomic.Int64 // requests admitted and not yet completed
	completions *telemetry.WindowHistogram

	flight *telemetry.FlightRecorder
	access *telemetry.TraceWriter

	start        time.Time
	panics       telemetry.Counter // feeds serve.panics
	degradedReqs atomic.Int64      // requests with ≥1 degraded query

	hRequestNS *telemetry.Histogram
	hQueueNS   *telemetry.Histogram
	wRequestNS *telemetry.WindowHistogram
}

// New builds a Server from the config.
func New(cfg Config) *Server {
	warmProcess()
	return newServer(cfg)
}

// newServer is New without the process warmup, so warmup itself can build
// a throwaway instance without re-entering the warmup once.
func newServer(cfg Config) *Server {
	cfg = cfg.withDefaults()
	tel := cfg.Telemetry
	// The admission controller counts accepted and shed requests; the
	// registry's serve.requests and serve.shed are fed from those counts.
	adm := admit.New(cfg.MaxConcurrent, cfg.QueueDepth).
		Feed(tel.Counter("serve.requests"), tel.Counter("serve.shed"))
	s := &Server{
		cfg:         cfg,
		tel:         tel,
		adm:         adm,
		pool:        enginePool{exec.NewPool(cfg.poolConfig(), tel)},
		mux:         http.NewServeMux(),
		slots:       adm.Slots(),
		run:         adm.Run(),
		gauge:       adm.Gauge(),
		completions: adm.Completions(),
		flight:      telemetry.NewFlightRecorder(cfg.FlightK, cfg.FlightRing),
		access:      cfg.AccessLog,
		start:       time.Now(),
		hRequestNS:  tel.Histogram("serve.request_ns"),
		hQueueNS:    tel.Histogram("serve.queue_wait_ns"),
		wRequestNS:  tel.Window("serve.request_ns"),
	}
	s.panics.Feed(tel.Counter("serve.panics"))
	s.mux.HandleFunc("/v1/batch", s.handleBatch)
	s.mux.HandleFunc("/v1/snapshot", s.handleSnapshot)
	s.mux.HandleFunc("/v1/preload", s.handlePreload)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/metrics.json", s.handleMetricsJSON)
	s.mux.HandleFunc("/debug/flightrecorder", s.handleFlightRecorder)
	s.mux.HandleFunc("/statz", s.handleStatz)
	// Boot-time prewarm: the pool has already preseeded its caches from the
	// artifact and built an engine for every axiom set it carries, so a
	// -preload server's first request is engine-warm (Stats.ColdEngine
	// false), which is the artifact's whole point: warm-equivalent behavior
	// from boot.  Replaying the recorded workloads pays the rest.
	if cfg.Preload != nil {
		s.replayWarm(cfg.Preload.Replays)
		// Boot prewarm allocates heavily (engine construction, first parses);
		// collect now so the first real request inherits a quiet heap instead
		// of boot's GC debt.
		runtime.GC()
	}
	return s
}

// replayWarm drives the artifact's recorded replay workloads through the
// server's own request path, round-robin, until a time budget is spent.
// The engine prewarm above removes engine construction from the first
// request, but a long tail of one-time costs remains — first parse of that
// exact program text, first query expansion and its interning, the
// prewarmed engine's first batch — and the only way to pay them all is to
// serve the workload.  The budget is wall time rather than a pass count
// because request latency keeps improving long after logical first-touch is
// done: sustained busy CPU is what ramps a host's frequency governor and
// settles the allocator, and a ~tenth of a second of it at boot is what
// makes the first client request perform like a steady-state one.  Errors
// are ignored (a malformed recorded workload degrades warmth, nothing
// else); the warmup requests show up in the request counters and /statz
// like any request.
func (s *Server) replayWarm(replays []automata.ArtifactReplay) {
	const (
		budget    = 120 * time.Millisecond
		maxPasses = 4096 // bound the counter pollution when passes are very cheap
	)
	var bodies [][]byte
	for _, rp := range replays {
		body, err := json.Marshal(BatchRequest{Program: rp.Program, Fn: rp.Fn, Queries: rp.Queries})
		if err != nil {
			continue
		}
		bodies = append(bodies, body)
	}
	if len(bodies) == 0 {
		return
	}
	start := time.Now()
	for pass := 0; pass < maxPasses && time.Since(start) < budget; pass++ {
		body := bodies[pass%len(bodies)]
		req, err := http.NewRequest(http.MethodPost, "/v1/batch", bytes.NewReader(body))
		if err != nil {
			return
		}
		req.Header.Set("Content-Type", "application/json")
		s.ServeHTTP(&discardResponseWriter{h: make(http.Header)}, req)
	}
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
			writeJSONError(sw, http.StatusInternalServerError, msg)
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

// retryAfterSeconds is the admission controller's backlog-over-drain-rate
// estimate; see admit.Controller.RetryAfterSeconds.
func (s *Server) retryAfterSeconds() int { return s.adm.RetryAfterSeconds() }

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeJSONError(w, http.StatusMethodNotAllowed, "POST only")
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
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds()))
		writeJSONError(w, http.StatusTooManyRequests, "admission queue full; retry")
		return
	}
	defer s.adm.Release()
	if !s.adm.Begin() {
		writeJSONError(w, http.StatusServiceUnavailable, "server draining")
		return
	}
	startWait := time.Now()
	var meta *flightMeta
	defer func() {
		dur := time.Since(startWait)
		s.adm.Finish()
		s.hRequestNS.Observe(dur.Nanoseconds())
		s.wRequestNS.Observe(dur.Nanoseconds())
		root.End()
		s.recordFlight(w, rt, startWait, dur, meta)
	}()

	// Wait for a run slot.  Admitted requests finish even during a drain;
	// only the client hanging up aborts the wait.
	qsp := rt.StartSpan("serve.admission", root.ID())
	if !s.adm.AcquireRun(r.Context()) {
		writeJSONError(w, http.StatusServiceUnavailable, "client canceled while queued")
		return
	}
	defer s.adm.ReleaseRun()
	s.hQueueNS.Observe(time.Since(startWait).Nanoseconds())
	qsp.End()

	var req BatchRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	if err := dec.Decode(&req); err != nil {
		writeJSONError(w, http.StatusBadRequest, fmt.Sprintf("bad request body: %v", err))
		return
	}
	resp, m, code, err := s.answer(r.Context(), &req, rt, root.ID())
	meta = m
	if err != nil {
		writeJSONError(w, code, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// answer runs one decoded batch request; it returns the flight-recorder
// metadata (nil on error) and an HTTP status code alongside any error.
// Spans it opens parent under parent; the engine and prover pick up the
// trace through the batch context's trace scope.
func (s *Server) answer(ctx context.Context, req *BatchRequest, rt *telemetry.RequestTrace, parent telemetry.SpanID) (*BatchResponse, *flightMeta, int, error) {
	if len(req.Raw) > 0 {
		return s.answerRaw(ctx, req, rt, parent)
	}
	if len(req.Queries) == 0 {
		return nil, nil, http.StatusBadRequest, fmt.Errorf("no queries")
	}
	svc0 := time.Now()
	asp := rt.StartSpan("serve.analyze", parent)
	prog, err := lang.Parse(req.Program)
	if err != nil {
		return nil, nil, http.StatusBadRequest, fmt.Errorf("program: %v", err)
	}
	fn := req.Fn
	if fn == "" {
		if len(prog.Funcs) != 1 {
			return nil, nil, http.StatusBadRequest, fmt.Errorf("program has %d functions; set fn", len(prog.Funcs))
		}
		fn = prog.Funcs[0].Name
	}
	res, err := analysis.Analyze(prog, fn, analysis.Options{
		InferTypeAxioms:      true,
		AssumeLoopInvariants: req.AssumeInvariants,
		Telemetry:            s.tel,
	})
	if err != nil {
		return nil, nil, http.StatusBadRequest, fmt.Errorf("analyze: %v", err)
	}
	queries, origins, err := res.ExpandQueryLines(req.Queries, func(n int) string {
		return fmt.Sprintf("queries[%d]", n)
	})
	if err != nil {
		return nil, nil, http.StatusBadRequest, err
	}
	if len(queries) > s.cfg.MaxQueries {
		return nil, nil, http.StatusRequestEntityTooLarge,
			fmt.Errorf("%d expanded queries exceed the per-request limit of %d", len(queries), s.cfg.MaxQueries)
	}
	asp.End(telemetry.String("fn", fn), telemetry.Int("queries", len(queries)))

	echo := func(i int) (int, string) { return origins[i], req.Queries[origins[i]] }
	return s.runBatch(ctx, req, rt, parent, res.Axioms, queries, echo, svc0)
}

// answerRaw runs a raw-mode request: the axiom set arrives as text and the
// queries fully specified, so analysis is skipped entirely.  This is the
// path routed cluster traffic takes when the client already holds analysis
// results (and the differential suite's way of replaying engine workloads
// through HTTP byte-identically).
func (s *Server) answerRaw(ctx context.Context, req *BatchRequest, rt *telemetry.RequestTrace, parent telemetry.SpanID) (*BatchResponse, *flightMeta, int, error) {
	if len(req.Queries) > 0 || req.Program != "" {
		return nil, nil, http.StatusBadRequest, fmt.Errorf("raw queries exclude program/queries fields")
	}
	if len(req.Raw) > s.cfg.MaxQueries {
		return nil, nil, http.StatusRequestEntityTooLarge,
			fmt.Errorf("%d raw queries exceed the per-request limit of %d", len(req.Raw), s.cfg.MaxQueries)
	}
	svc0 := time.Now()
	asp := rt.StartSpan("serve.rawparse", parent)
	name := req.AxiomSetName
	if name == "" {
		name = "raw"
	}
	ax, err := axiom.ParseSet(name, req.AxiomSet)
	if err != nil {
		return nil, nil, http.StatusBadRequest, fmt.Errorf("axiom_set: %v", err)
	}
	queries, err := exec.BuildRawQueries(ax, req.Raw)
	if err != nil {
		return nil, nil, http.StatusBadRequest, err
	}
	asp.End(telemetry.String("axiom_set", name), telemetry.Int("queries", len(queries)))

	echo := func(i int) (int, string) { return i, exec.RenderRawQuery(req.Raw[i]) }
	return s.runBatch(ctx, req, rt, parent, ax, queries, echo, svc0)
}

// runBatch is the shared tail of both request modes: acquire the warm
// engine, run the batch under the request deadline, and assemble the
// response and flight metadata.  echo maps a result index to the line/echo
// pair the response reports.
func (s *Server) runBatch(ctx context.Context, req *BatchRequest, rt *telemetry.RequestTrace, parent telemetry.SpanID,
	ax *axiom.Set, queries []core.Query, echo func(int) (int, string), svc0 time.Time) (*BatchResponse, *flightMeta, int, error) {

	eng, cold := s.pool.get(ax)
	deadline := clampMS(req.DeadlineMS, s.cfg.MaxDeadline)
	perQuery := s.cfg.QueryTimeout
	if req.TimeoutMS > 0 {
		perQuery = clampMS(req.TimeoutMS, s.cfg.MaxDeadline)
	}
	bctx, cancel := context.WithTimeout(ctx, deadline)
	defer cancel()
	bsp := rt.StartSpan("serve.batch", parent)
	bctx = telemetry.WithTraceScope(bctx, rt, bsp.ID())

	memo0, dfa0 := s.pool.Memo().Stats(), s.pool.DFACache().Stats()
	start := time.Now()
	outs := eng.BatchTimeout(bctx, queries, perQuery)
	elapsed := time.Since(start)
	memo, dfa := s.pool.Memo().Stats(), s.pool.DFACache().Stats()
	bsp.End(
		telemetry.String("axiom_set", ax.StructName),
		telemetry.Bool("cold_engine", cold),
		telemetry.Int("queries", len(outs)),
	)

	resp := &BatchResponse{Results: make([]QueryResult, len(outs))}
	for i, out := range outs {
		q := queries[i]
		line, src := echo(i)
		resp.Results[i] = QueryResult{
			Line:   line,
			Query:  src,
			S:      q.S.String(),
			T:      q.T.String(),
			Result: out.Result.String(),
			Kind:   out.Kind.String(),
			Reason: out.Reason,
		}
		if out.Result != core.No {
			resp.Dependent = true
		}
	}
	deg := rt.DegradedCounts()
	resp.Stats = BatchStats{
		Queries:         len(outs),
		ElapsedUS:       elapsed.Microseconds(),
		ServiceUS:       time.Since(svc0).Microseconds(),
		ColdEngine:      cold,
		AxiomSet:        ax.StructName,
		MemoHits:        memo.Hits,
		MemoLookups:     memo.Lookups,
		DFAHits:         int64(dfa.Hits),
		DFALookups:      int64(dfa.Lookups),
		Timeouts:        deg[telemetry.DegradeQueryTimeout],
		TraceID:         rt.TraceIDString(),
		DegradedQueries: rt.DegradedTotal(),
		DeadlineExpired: deg[telemetry.DegradeRequestDeadline],
	}
	// The flight-recorder metadata wants this request's cache economics,
	// not the pool's lifetime totals, so report the deltas (best-effort:
	// concurrent requests blur them).
	meta := &flightMeta{
		AxiomSet:    ax.StructName,
		Queries:     len(outs),
		ColdEngine:  cold,
		ElapsedUS:   elapsed.Microseconds(),
		MemoHits:    memo.Hits - memo0.Hits,
		MemoLookups: memo.Lookups - memo0.Lookups,
		DFAHits:     int64(dfa.Hits - dfa0.Hits),
		DFALookups:  int64(dfa.Lookups - dfa0.Lookups),
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

// EngineStatz is one warm engine's /statz entry.
type EngineStatz struct {
	AxiomSet string `json:"axiom_set"`
	Uses     int64  `json:"uses"`
	Batches  int64  `json:"batches"`
	Queries  int64  `json:"queries"`
	// The degraded-query counters, split by reason like engine.Stats.
	Timeouts        int64 `json:"timeouts"`
	DeadlineExpired int64 `json:"deadline_expired"`
	Canceled        int64 `json:"canceled"`
}

// Statz is the /statz body: server-level admission and lifecycle counters,
// the engine pool's shared caches, and every resident engine's counters.
type Statz struct {
	UptimeMS        int64 `json:"uptime_ms"`
	Draining        bool  `json:"draining"`
	Accepted        int64 `json:"accepted"`
	Completed       int64 `json:"completed"`
	Inflight        int64 `json:"inflight"`
	Shed            int64 `json:"shed"`
	RefusedDraining int64 `json:"refused_draining"`
	Panics          int64 `json:"panics"`
	// DegradedRequests counts requests with at least one query degraded
	// toward Maybe (each such request is also in the flight recorder).
	DegradedRequests int64 `json:"degraded_requests"`
	EnginesResident  int   `json:"engines_resident"`
	EnginesEvicted   int64 `json:"engines_evicted"`
	// InternedExprs is the process-wide count of distinct interned path
	// expressions.  The interner underlies every cache key in the stack and
	// is never evicted (node IDs must stay stable), so this is the one
	// monotone number to watch for expression-churn growth.
	InternedExprs int `json:"interned_exprs"`

	// The engine pool's proof memo and DFA cache, shared by every engine.
	MemoLookups   int64   `json:"memo_lookups"`
	MemoHits      int64   `json:"memo_hits"`
	MemoHitRate   float64 `json:"memo_hit_rate"`
	MemoEntries   int     `json:"memo_entries"`
	MemoEvictions int64   `json:"memo_evictions"`

	DFALookups   int     `json:"dfa_lookups"`
	DFAHits      int     `json:"dfa_hits"`
	DFAHitRate   float64 `json:"dfa_hit_rate"`
	DFACompiles  int     `json:"dfa_compiles"`
	DFALen       int     `json:"dfa_len"`
	OpsLen       int     `json:"ops_len"`
	DFAEvictions int64   `json:"dfa_evictions"`
	OpsEvictions int64   `json:"ops_evictions"`

	Engines []EngineStatz `json:"engines"`
}

// StatzSnapshot assembles the /statz body (exported for the soak tests and
// aptserved's drain summary).
func (s *Server) StatzSnapshot() Statz {
	accepted, completed, shed, refused := s.adm.Counts()
	memo, dfas := s.pool.Memo(), s.pool.DFACache()
	ms, ds := memo.Stats(), dfas.Stats()
	z := Statz{
		UptimeMS:         time.Since(s.start).Milliseconds(),
		Draining:         s.Draining(),
		Accepted:         accepted,
		Completed:        completed,
		Inflight:         s.gauge.Load(),
		Shed:             shed,
		RefusedDraining:  refused,
		Panics:           s.panics.Value(),
		DegradedRequests: s.degradedReqs.Load(),
		EnginesResident:  s.pool.len(),
		EnginesEvicted:   s.pool.Evicted(),
		InternedExprs:    pathexpr.InternedExprs(),

		MemoLookups:   ms.Lookups,
		MemoHits:      ms.Hits,
		MemoHitRate:   ms.HitRate(),
		MemoEntries:   ms.Entries,
		MemoEvictions: ms.Evictions,

		DFALookups:   ds.Lookups,
		DFAHits:      ds.Hits,
		DFACompiles:  ds.Compiles,
		DFALen:       dfas.Len(),
		OpsLen:       dfas.OpsLen(),
		DFAEvictions: dfas.DFAEvictions(),
		OpsEvictions: dfas.OpsEvictions(),
	}
	if ds.Lookups > 0 {
		z.DFAHitRate = float64(ds.Hits) / float64(ds.Lookups)
	}
	for _, e := range s.pool.snapshot() {
		z.Engines = append(z.Engines, engineStatz(e))
	}
	return z
}

func engineStatz(v exec.View) EngineStatz {
	st := v.Eng.Stats()
	return EngineStatz{
		AxiomSet:        v.Name,
		Uses:            v.Uses,
		Batches:         st.Batches,
		Queries:         st.Queries,
		Timeouts:        st.Timeouts,
		DeadlineExpired: st.DeadlineExpired,
		Canceled:        st.Canceled,
	}
}

func (s *Server) handleStatz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.StatzSnapshot())
}

// The JSON/clamp helpers live in the wire layer now; these bindings keep
// the package-local call sites (and the handlers' shape) unchanged.
func writeJSON(w http.ResponseWriter, code int, v any) { wire.WriteJSON(w, code, v) }

func writeJSONError(w http.ResponseWriter, code int, msg string) {
	wire.WriteJSONError(w, code, msg)
}

func clampMS(ms int64, max time.Duration) time.Duration { return wire.ClampMS(ms, max) }

func defaultConcurrency() int {
	n := runtime.GOMAXPROCS(0)
	if n < 1 {
		n = 1
	}
	return n
}
