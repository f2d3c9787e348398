package route

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/admit"
	"repro/internal/analysis"
	"repro/internal/axiom"
	"repro/internal/lang"
	"repro/internal/strhash"
	"repro/internal/telemetry"
	"repro/internal/wire"
)

// Router defaults.  The router's own admission exists to bound memory (it
// buffers request and response bodies), not to pace the backends — the
// backends shed for themselves and the router propagates their 429s — so
// its capacities default much wider than a backend's.
const (
	DefaultMaxConcurrent  = 128
	DefaultQueueDepth     = 256
	DefaultHedgeDelay     = 0 // hedging off unless asked for
	DefaultHealthInterval = 500 * time.Millisecond
	DefaultProbeTimeout   = 2 * time.Second
	DefaultMaxBodyBytes   = 1 << 20
	// fpCacheCap bounds the program→fingerprint cache.
	fpCacheCap = 1024
)

// Config sizes a Router.
type Config struct {
	// Backends are the backend addresses ("host:port" or full
	// "http://host:port" URLs); the membership is fixed for the router's
	// life.
	Backends []string
	// HedgeDelay, when positive, fires a hedged duplicate of a request to
	// the shard's next backend if the owner has not answered within the
	// delay; first answer wins, the loser is canceled.  Zero disables.
	HedgeDelay time.Duration
	// HealthInterval is the /healthz probe period (DefaultHealthInterval
	// when zero); ProbeTimeout bounds one probe.
	HealthInterval time.Duration
	ProbeTimeout   time.Duration
	// MaxConcurrent and QueueDepth size the router's admission control.
	MaxConcurrent int
	QueueDepth    int
	// MaxBodyBytes bounds one buffered request body.
	MaxBodyBytes int64
	// Telemetry receives the router's counters (nil disables).
	Telemetry *telemetry.Set
	// AccessLog, when non-nil, receives one JSONL "http_access" line per
	// routed request.
	AccessLog *telemetry.TraceWriter
}

func (c Config) withDefaults() Config {
	if c.HealthInterval <= 0 {
		c.HealthInterval = DefaultHealthInterval
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = DefaultProbeTimeout
	}
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = DefaultMaxConcurrent
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = DefaultQueueDepth
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = DefaultMaxBodyBytes
	}
	return c
}

// backend is one member's health state.
type backend struct {
	addr      string // normalized base URL, e.g. "http://127.0.0.1:8080"
	up        atomic.Bool
	forwarded *telemetry.Counter // route.backend_forwarded{backend=addr}
}

// Router shards /v1/batch traffic across aptserved backends by axiom-set
// fingerprint.  It implements http.Handler and composes the same admission
// tier the single-node server uses — the routing layer is the other
// composition of the query plane's tiers.
type Router struct {
	cfg    Config
	tel    *telemetry.Set
	adm    *admit.Controller
	mux    *http.ServeMux
	client *http.Client
	access *telemetry.TraceWriter

	// ring and backends (by normalized addr) are fixed at New, so the
	// request path and the prober read them without a lock.
	ring     *Ring
	backends map[string]*backend

	mu      sync.Mutex        // guards fpCache
	fpCache map[uint64]uint64 // FNV(program+fn) → axiom-set fingerprint

	probeCtx    context.Context
	probeCancel context.CancelFunc
	probeDone   chan struct{}

	hedgeWon    *telemetry.Counter // route.hedge{outcome="won"}
	hedgeLost   *telemetry.Counter // route.hedge{outcome="lost"}
	hedgeSpared *telemetry.Counter // route.hedge{outcome="spared"}
	panics      *telemetry.Counter // route.panics
	cHedges     *telemetry.Counter // route.hedges
	hRequest    *telemetry.Histogram
}

// normalizeAddr turns "host:port" into "http://host:port" (full URLs pass
// through, trailing slashes are trimmed).
func normalizeAddr(addr string) string {
	for len(addr) > 0 && addr[len(addr)-1] == '/' {
		addr = addr[:len(addr)-1]
	}
	if addr == "" {
		return addr
	}
	if !bytes.Contains([]byte(addr), []byte("://")) {
		return "http://" + addr
	}
	return addr
}

// New builds a Router over the configured backends and starts its health
// prober.  Stop it with Drain.
func New(cfg Config) *Router {
	cfg = cfg.withDefaults()
	tel := cfg.Telemetry
	rt := &Router{
		cfg: cfg,
		tel: tel,
		// The admission controller's lifecycle counts and in-flight gauge
		// report as route.requests, .completed, .shed, .refused_draining
		// and .inflight.
		adm: admit.New(cfg.MaxConcurrent, cfg.QueueDepth).Feed(tel, "route"),
		mux: http.NewServeMux(),
		client: &http.Client{
			// No overall client timeout: the batch deadline belongs to the
			// backend (it caps at MaxDeadline); per-attempt cancellation comes
			// from the request context.
			Transport: &http.Transport{MaxIdleConnsPerHost: cfg.MaxConcurrent},
		},
		access:      cfg.AccessLog,
		backends:    make(map[string]*backend),
		fpCache:     make(map[uint64]uint64),
		hedgeWon:    tel.Counter(telemetry.Labeled("route.hedge", "outcome", "won")),
		hedgeLost:   tel.Counter(telemetry.Labeled("route.hedge", "outcome", "lost")),
		hedgeSpared: tel.Counter(telemetry.Labeled("route.hedge", "outcome", "spared")),
		panics:      tel.Counter("route.panics"),
		cHedges:     tel.Counter("route.hedges"),
		hRequest:    tel.Histogram("route.request_ns"),
	}
	start := time.Now()
	tel.GaugeFunc("route.uptime_seconds", func() int64 { return int64(time.Since(start).Seconds()) })
	var addrs []string
	for _, a := range cfg.Backends {
		if n := normalizeAddr(a); n != "" {
			addrs = append(addrs, n)
			rt.addBackend(n)
		}
	}
	rt.ring = NewRing(addrs)
	rt.mux.HandleFunc("/v1/batch", rt.handleBatch)
	rt.mux.HandleFunc("/healthz", rt.handleHealthz)
	rt.mux.HandleFunc("/metrics", rt.handleMetrics)
	rt.mux.HandleFunc("/metrics.json", rt.handleMetricsJSON)
	rt.probeCtx, rt.probeCancel = context.WithCancel(context.Background())
	rt.probeDone = make(chan struct{})
	go rt.probeLoop()
	return rt
}

// addBackend registers a member not seen before — optimistically up until
// the first probe says otherwise — with its per-backend series
// route.backend_forwarded and route.backend_up.
func (rt *Router) addBackend(addr string) {
	if _, ok := rt.backends[addr]; ok {
		return
	}
	b := &backend{addr: addr, forwarded: rt.tel.Counter(telemetry.Labeled("route.backend_forwarded", "backend", addr))}
	b.up.Store(true)
	rt.tel.GaugeFunc(telemetry.Labeled("route.backend_up", "backend", addr), func() int64 {
		if b.up.Load() {
			return 1
		}
		return 0
	})
	rt.backends[addr] = b
}

// ServeHTTP dispatches with the same panic isolation the backend server
// uses.
func (rt *Router) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	defer func() {
		if rec := recover(); rec != nil {
			rt.panics.Add(1)
			wire.WriteJSONError(w, http.StatusInternalServerError, "internal error")
		}
	}()
	rt.mux.ServeHTTP(w, r)
}

// Drain stops admissions, waits for in-flight forwards, and stops the
// health prober.
func (rt *Router) Drain(ctx context.Context) error {
	rt.probeCancel()
	err := rt.adm.Drain(ctx)
	select {
	case <-rt.probeDone:
	case <-ctx.Done():
	}
	return err
}

// Draining reports whether Drain has begun.
func (rt *Router) Draining() bool { return rt.adm.Draining() }

// probeLoop polls every backend's /healthz, flipping its up flag.  A
// backend marked down by a failed forward is revived here as soon as it
// answers again.
func (rt *Router) probeLoop() {
	defer close(rt.probeDone)
	tick := time.NewTicker(rt.cfg.HealthInterval)
	defer tick.Stop()
	for {
		select {
		case <-rt.probeCtx.Done():
			return
		case <-tick.C:
		}
		rt.probeAll()
	}
}

// probeAll runs one synchronous probe pass over every backend.
func (rt *Router) probeAll() {
	for _, b := range rt.backends {
		b.up.Store(rt.probe(b.addr))
	}
}

// probe reports whether the backend answers /healthz with 200.
func (rt *Router) probe(addr string) bool {
	ctx, cancel := context.WithTimeout(rt.probeCtx, rt.cfg.ProbeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, addr+"/healthz", nil)
	if err != nil {
		return false
	}
	resp, err := rt.client.Do(req)
	if err != nil {
		return false
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// fingerprint computes the request's axiom-set fingerprint — the ring
// placement key.  Raw mode parses the shipped axiom text; program mode
// parses the program and collects its merged axiom set exactly as the
// backend's analyzer will (analysis.CollectAxioms), memoized by program
// hash so repeat programs skip the parse.  Malformed requests fall back to
// a content hash: they still place deterministically, and the owning
// backend answers the 400.
func (rt *Router) fingerprint(req *wire.BatchRequest) uint64 {
	if len(req.Raw) > 0 || req.AxiomSet != "" {
		if set, err := axiom.ParseSet(req.AxiomSetName, req.AxiomSet); err == nil {
			return set.Fingerprint64()
		}
		return strhash.FNV64a(req.AxiomSet)
	}
	h := strhash.FNV64a(req.Program + "\x00" + req.Fn)
	rt.mu.Lock()
	fp, ok := rt.fpCache[h]
	rt.mu.Unlock()
	if ok {
		return fp
	}
	fp = h
	if prog, err := lang.Parse(req.Program); err == nil {
		fn := req.Fn
		if fn == "" && len(prog.Funcs) == 1 {
			fn = prog.Funcs[0].Name
		}
		fp = analysis.CollectAxioms(prog, fn, true).Fingerprint64()
	}
	rt.mu.Lock()
	if len(rt.fpCache) >= fpCacheCap {
		rt.fpCache = make(map[uint64]uint64) // cheap full reset beats tracking LRU here
	}
	rt.fpCache[h] = fp
	rt.mu.Unlock()
	return fp
}

func (rt *Router) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if rt.Draining() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// handleMetrics serves the telemetry registry as Prometheus text
// exposition; /metrics.json serves the same registry as a JSON snapshot.
func (rt *Router) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	rt.tel.Metrics().WritePrometheus(w) //nolint:errcheck // client hangup
}

func (rt *Router) handleMetricsJSON(w http.ResponseWriter, r *http.Request) {
	wire.WriteJSON(w, http.StatusOK, rt.tel.Metrics().Snapshot())
}

func (rt *Router) handleBatch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		wire.WriteJSONError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	start := time.Now()
	if !rt.adm.TryAcquire() {
		w.Header().Set("Retry-After", strconv.Itoa(rt.adm.RetryAfterSeconds()))
		wire.WriteJSONError(w, http.StatusTooManyRequests, "router admission queue full; retry")
		return
	}
	defer rt.adm.Release()
	if !rt.adm.Begin() {
		wire.WriteJSONError(w, http.StatusServiceUnavailable, "router draining")
		return
	}
	defer func() {
		rt.adm.Finish()
		rt.hRequest.Observe(time.Since(start).Nanoseconds())
	}()

	body, err := wire.ReadBody(w, r, rt.cfg.MaxBodyBytes)
	if err != nil {
		wire.WriteBodyError(w, "read body", err)
		return
	}
	var req wire.BatchRequest
	if err := wire.DecodeRequest(body, &req); err != nil {
		wire.WriteBodyError(w, "bad request body", err)
		return
	}
	res := rt.forward(r.Context(), rt.fingerprint(&req), body, r.Header.Get("traceparent"))
	if res == nil {
		wire.WriteJSONError(w, http.StatusBadGateway, "no backend available")
		return
	}
	// Verbatim passthrough: the backend's verdicts, stats, trace ids, and —
	// critically for shed answers — its Retry-After estimate reach the
	// client untouched.  The router adds routing, never opinions.
	for _, h := range []string{"Content-Type", "Retry-After", "traceparent"} {
		if v := res.header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	w.Header().Set("X-Apt-Backend", res.addr)
	w.WriteHeader(res.status)
	w.Write(res.body) //nolint:errcheck // client hangup
	rt.logAccess(r, res, time.Since(start))
}

func (rt *Router) logAccess(r *http.Request, res *forwardResult, dur time.Duration) {
	if rt.access == nil {
		return
	}
	rt.access.Emit("http_access",
		telemetry.String("method", r.Method),
		telemetry.String("path", r.URL.Path),
		telemetry.Int("status", res.status),
		telemetry.Int64("bytes", int64(len(res.body))),
		telemetry.DurUS("dur_us", dur),
		telemetry.String("remote", r.RemoteAddr),
		telemetry.String("backend", res.addr),
	)
}

// forwardResult is one backend's buffered answer.
type forwardResult struct {
	status int
	header http.Header
	body   []byte
	addr   string
}

// forward sends the request to the fingerprint's owner, hedging to the
// next backend after HedgeDelay and failing over on connection errors and
// 503s.  The first delivered answer wins and every other attempt is
// canceled; nil means no backend could be reached.
func (rt *Router) forward(ctx context.Context, fp uint64, body []byte, traceparent string) *forwardResult {
	seq := rt.candidates(fp)
	if len(seq) == 0 {
		return nil
	}
	actx, cancel := context.WithCancel(ctx)
	defer cancel() // cancels the losing attempt's in-flight HTTP request

	type attemptOut struct {
		res *forwardResult // nil: connection-level failure
		err error
	}
	results := make(chan attemptOut, len(seq))
	launch := func(b *backend) {
		go func() {
			res, err := rt.attempt(actx, b, body, traceparent)
			results <- attemptOut{res: res, err: err}
		}()
	}

	hedging := rt.cfg.HedgeDelay > 0 && len(seq) > 1
	var hedgeC <-chan time.Time
	if hedging {
		timer := time.NewTimer(rt.cfg.HedgeDelay)
		defer timer.Stop()
		hedgeC = timer.C
	}

	launch(seq[0])
	launched, pending := 1, 1
	hedgeAddr := ""         // the hedged attempt's backend, "" until the hedge fires
	var last *forwardResult // kept 503 to propagate if every backend drains
	for pending > 0 {
		select {
		case out := <-results:
			// A 503 is a draining backend: fail over like a connection error
			// (another member can answer) and only propagate it when nobody
			// else can.  Every other status — 429 + Retry-After included — is
			// the shard owner's answer and is delivered verbatim.
			if out.res != nil && out.res.status != http.StatusServiceUnavailable {
				// Delivered.  Hedge accounting: exactly one of won/lost/spared
				// per hedging-eligible request, counted at delivery so the
				// completion itself is never double-counted.
				if hedging {
					switch {
					case hedgeAddr == "":
						rt.hedgeSpared.Add(1)
					case out.res.addr == hedgeAddr:
						rt.hedgeWon.Add(1)
					default:
						rt.hedgeLost.Add(1)
					}
				}
				return out.res
			}
			if out.res != nil {
				last = out.res
			}
			pending--
			if launched < len(seq) {
				launch(seq[launched])
				launched++
				pending++
			}
		case <-hedgeC:
			hedgeC = nil
			if launched < len(seq) {
				hedgeAddr = seq[launched].addr
				rt.cHedges.Add(1)
				launch(seq[launched])
				launched++
				pending++
			}
		case <-ctx.Done():
			return nil
		}
	}
	return last
}

// candidates returns the shard's backends in ring order with the healthy
// ones first (stable within each class), so the owner serves when up and
// the walk order still decides failover when it is not.
func (rt *Router) candidates(fp uint64) []*backend {
	seq := rt.ring.Sequence(fp)
	var up, down []*backend
	for _, addr := range seq {
		if b := rt.backends[addr]; b.up.Load() {
			up = append(up, b)
		} else {
			down = append(down, b)
		}
	}
	return append(up, down...)
}

// attempt forwards the buffered body to one backend and buffers its
// answer.  A connection-level error marks the backend down (the prober
// revives it) and returns nil.
func (rt *Router) attempt(ctx context.Context, b *backend, body []byte, traceparent string) (*forwardResult, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, b.addr+"/v1/batch", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if traceparent != "" {
		req.Header.Set("traceparent", traceparent)
	}
	resp, err := rt.client.Do(req)
	if err != nil {
		if ctx.Err() == nil {
			b.up.Store(false)
		}
		return nil, err
	}
	defer resp.Body.Close()
	respBody, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	b.forwarded.Add(1)
	return &forwardResult{status: resp.StatusCode, header: resp.Header, body: respBody, addr: b.addr}, nil
}
