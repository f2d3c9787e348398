package route

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/axiom"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/serve"
	"repro/internal/telemetry"
	"repro/internal/wire"
)

// newBackendTS boots one real single-node server — the router composes the
// very servers the rest of the suite tests — reporting into a registry of
// its own, which its /metrics.json serves.
func newBackendTS(t *testing.T) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(serve.New(serve.Config{Workers: 2, MaxConcurrent: 8, QueueDepth: 64,
		Telemetry: telemetry.New(telemetry.NewRegistry(), nil)}))
	t.Cleanup(ts.Close)
	return ts
}

// memoMisses reads the proof searches a backend has run (its
// engine.memo_misses) from its /metrics.json.
func memoMisses(t *testing.T, url string) int64 {
	t.Helper()
	resp, err := http.Get(url + "/metrics.json")
	if err != nil {
		t.Fatalf("GET /metrics.json: %v", err)
	}
	defer resp.Body.Close()
	var snap telemetry.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatalf("decode /metrics.json: %v", err)
	}
	return snap.Counters["engine.memo_misses"]
}

// newRouter builds a router reporting into a registry of its own (unless
// the config brings one), drained when the test ends.
func newRouter(t *testing.T, cfg Config) *Router {
	t.Helper()
	if cfg.Telemetry == nil {
		cfg.Telemetry = telemetry.New(telemetry.NewRegistry(), nil)
	}
	rt := New(cfg)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		rt.Drain(ctx) //nolint:errcheck
	})
	return rt
}

// counters snapshots the router registry's counters, the one place its
// counts are read from.
func counters(rt *Router) map[string]int64 { return rt.tel.Metrics().Snapshot().Counters }

// lifecycle reads the router's admission counts.
func lifecycle(rt *Router) (accepted, completed, shed, refused int64) {
	c := counters(rt)
	return c["route.requests"], c["route.completed"], c["route.shed"], c["route.refused_draining"]
}

// hedges reads the router's three hedge outcomes.
func hedges(rt *Router) (won, lost, spared int64) {
	c := counters(rt)
	return c[`route.hedge{outcome="won"}`], c[`route.hedge{outcome="lost"}`], c[`route.hedge{outcome="spared"}`]
}

func postBatch(t *testing.T, url string, req wire.BatchRequest) (*http.Response, []byte) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	resp, err := http.Post(url+"/v1/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/batch: %v", err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read response: %v", err)
	}
	return resp, out
}

// rawTreeReq is a small raw-mode request over the leaf-linked binary tree
// (two provably independent pairs).
func rawTreeReq() wire.BatchRequest {
	tree := axiom.LeafLinkedBinaryTree()
	return wire.BatchRequest{
		AxiomSet:     tree.Source(),
		AxiomSetName: tree.StructName,
		Raw: []wire.RawQuery{
			{SHandle: "h", SPath: "L", SField: "val", SWrite: true,
				THandle: "h", TPath: "R", TField: "val"},
			{SHandle: "h", SPath: "", SField: "val", SWrite: true,
				THandle: "k", TPath: "", TField: "val", Relation: "distinct"},
		},
	}
}

// reqFingerprint computes a request's placement key exactly the way the
// router does (the raw-mode path touches no router state).
func reqFingerprint(req *wire.BatchRequest) uint64 {
	return (&Router{}).fingerprint(req)
}

// rawFromQuery converts one engine workload query to its wire form.  The
// conversion is lossless: workload queries carry only axioms, accesses, and
// the handle relation — exactly the raw-mode vocabulary.
func rawFromQuery(q core.Query) wire.RawQuery {
	rel := "same"
	switch q.Relation {
	case core.DistinctHandles:
		rel = "distinct"
	case core.UnknownHandles:
		rel = "unknown"
	}
	if q.S.Handle == q.T.Handle {
		rel = "same"
	}
	return wire.RawQuery{
		SHandle: q.S.Handle, SPath: q.S.Path.String(), SField: q.S.Field, SWrite: q.S.IsWrite,
		THandle: q.T.Handle, TPath: q.T.Path.String(), TField: q.T.Field, TWrite: q.T.IsWrite,
		Relation: rel,
	}
}

// TestRouterByteIdenticalVerdicts is the cluster's correctness anchor: the
// full 228-query engine differential workload, grouped by validity window
// into raw-mode batches, must answer byte-identically whether it runs
// against one directly-addressed server or through the consistent-hash
// router over four backends.  It also pins placement: each window's batch
// must land on exactly the backend the ring owns it to.
func TestRouterByteIdenticalVerdicts(t *testing.T) {
	queries := engine.Workload(1, 0)
	if len(queries) != 228 {
		t.Fatalf("workload = %d queries, want 228", len(queries))
	}

	// Group by window, preserving first-sighting order.
	type group struct {
		set  *axiom.Set
		raws []wire.RawQuery
	}
	var order []*group
	bySet := map[*axiom.Set]*group{}
	for _, q := range queries {
		g := bySet[q.Axioms]
		if g == nil {
			g = &group{set: q.Axioms}
			bySet[q.Axioms] = g
			order = append(order, g)
		}
		g.raws = append(g.raws, rawFromQuery(q))
	}

	direct := newBackendTS(t)
	var addrs []string
	for i := 0; i < 4; i++ {
		addrs = append(addrs, newBackendTS(t).URL)
	}
	rt := newRouter(t, Config{Backends: addrs})
	rts := httptest.NewServer(rt)
	defer rts.Close()

	total := 0
	expected := map[string]int64{} // ring-owner addr → batches owed
	for _, g := range order {
		req := wire.BatchRequest{AxiomSet: g.set.Source(), AxiomSetName: g.set.StructName, Raw: g.raws}
		expected[rt.ring.Owner(reqFingerprint(&req))]++

		dResp, dBody := postBatch(t, direct.URL, req)
		rResp, rBody := postBatch(t, rts.URL, req)
		if dResp.StatusCode != http.StatusOK || rResp.StatusCode != http.StatusOK {
			t.Fatalf("window %s: direct=%d routed=%d, want 200/200\ndirect: %s\nrouted: %s",
				g.set.StructName, dResp.StatusCode, rResp.StatusCode, dBody, rBody)
		}
		var dr, rr wire.BatchResponse
		if err := json.Unmarshal(dBody, &dr); err != nil {
			t.Fatalf("window %s: direct response: %v", g.set.StructName, err)
		}
		if err := json.Unmarshal(rBody, &rr); err != nil {
			t.Fatalf("window %s: routed response: %v", g.set.StructName, err)
		}
		dj, _ := json.Marshal(dr.Results)
		rj, _ := json.Marshal(rr.Results)
		if !bytes.Equal(dj, rj) {
			t.Fatalf("window %s: verdicts differ between direct and routed:\ndirect: %s\nrouted: %s",
				g.set.StructName, dj, rj)
		}
		if dr.Dependent != rr.Dependent {
			t.Fatalf("window %s: Dependent differs: direct=%v routed=%v", g.set.StructName, dr.Dependent, rr.Dependent)
		}
		total += len(rr.Results)
	}
	if total != 228 {
		t.Fatalf("answered %d queries through the router, want 228", total)
	}

	// Placement check: forwarded counts must equal the ring's ownership —
	// every batch went to its owner, no failover, no strays.
	c := counters(rt)
	for _, addr := range addrs {
		if got := c[telemetry.Labeled("route.backend_forwarded", "backend", addr)]; got != expected[addr] {
			t.Errorf("backend %s forwarded %d batches, ring owes it %d", addr, got, expected[addr])
		}
	}
	if accepted, completed, _, _ := lifecycle(rt); accepted != completed || accepted != int64(len(order)) {
		t.Errorf("accepted=%d completed=%d, want both %d", accepted, completed, len(order))
	}

	// Warmth check: a repeat of any window lands on the owner that proved
	// its goals, so no backend searches a proof again.
	misses := func() (n int64) {
		for _, addr := range addrs {
			n += memoMisses(t, addr)
		}
		return n
	}
	misses0 := misses()
	for _, g := range order {
		req := wire.BatchRequest{AxiomSet: g.set.Source(), AxiomSetName: g.set.StructName, Raw: g.raws}
		resp, body := postBatch(t, rts.URL, req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("window %s repeat: status %d: %s", g.set.StructName, resp.StatusCode, body)
		}
	}
	if n := misses() - misses0; n != 0 {
		t.Errorf("repeats through the router searched %d proofs, want 0", n)
	}
}

// TestRouterBodyCapAnswers413: a body over the router's cap answers 413
// naming the cap, without reaching a backend; a malformed body under the
// cap stays a 400.
func TestRouterBodyCapAnswers413(t *testing.T) {
	backend := newBackendTS(t)
	rt := newRouter(t, Config{Backends: []string{backend.URL}, MaxBodyBytes: 256})
	rts := httptest.NewServer(rt)
	defer rts.Close()

	for _, tc := range []struct {
		name, body string
		want       int
		msg        string
	}{
		{"over cap", `{"program":"` + strings.Repeat(" ", 512) + `"}`, http.StatusRequestEntityTooLarge, "limit of 256 bytes"},
		{"malformed", "between S T", http.StatusBadRequest, "bad request body"},
	} {
		resp, err := http.Post(rts.URL+"/v1/batch", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		var e wire.ErrorResponse
		json.NewDecoder(resp.Body).Decode(&e) //nolint:errcheck
		resp.Body.Close()
		if resp.StatusCode != tc.want || !strings.Contains(e.Error, tc.msg) {
			t.Errorf("%s: %d %q, want %d mentioning %q", tc.name, resp.StatusCode, e.Error, tc.want, tc.msg)
		}
	}
	if n := counters(rt)[telemetry.Labeled("route.backend_forwarded", "backend", backend.URL)]; n != 0 {
		t.Errorf("rejected bodies forwarded %d batches", n)
	}
}

// TestRouterTrailingDataAnswers400: a body holding more than one JSON value
// is rejected whole, as the backend rejects it, without reaching a backend.
func TestRouterTrailingDataAnswers400(t *testing.T) {
	backend := newBackendTS(t)
	rt := newRouter(t, Config{Backends: []string{backend.URL}})
	rts := httptest.NewServer(rt)
	defer rts.Close()

	for _, body := range []string{`{"fn":"f"}garbage`, `{"fn":"f"}{"fn":"f"}`} {
		resp, err := http.Post(rts.URL+"/v1/batch", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var e wire.ErrorResponse
		json.NewDecoder(resp.Body).Decode(&e) //nolint:errcheck
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(e.Error, "bad request body") {
			t.Errorf("%s: %d %q, want 400 bad request body", body, resp.StatusCode, e.Error)
		}
	}
	if n := counters(rt)[telemetry.Labeled("route.backend_forwarded", "backend", backend.URL)]; n != 0 {
		t.Errorf("rejected bodies forwarded %d batches", n)
	}
}

// TestRouterPropagatesRetryAfter: a backend's 429 is the shard owner's
// considered backpressure estimate — the router must deliver status, body,
// and the Retry-After header verbatim, not re-derive its own.
func TestRouterPropagatesRetryAfter(t *testing.T) {
	fake := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" {
			fmt.Fprintln(w, "ok")
			return
		}
		w.Header().Set("Retry-After", "17")
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusTooManyRequests)
		fmt.Fprint(w, `{"error":"server busy; retry"}`)
	}))
	defer fake.Close()

	rt := newRouter(t, Config{Backends: []string{fake.URL}})
	rts := httptest.NewServer(rt)
	defer rts.Close()

	resp, body := postBatch(t, rts.URL, rawTreeReq())
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429 (body %s)", resp.StatusCode, body)
	}
	if got := resp.Header.Get("Retry-After"); got != "17" {
		t.Errorf("Retry-After = %q, want the backend's own %q", got, "17")
	}
	var er wire.ErrorResponse
	if err := json.Unmarshal(body, &er); err != nil || er.Error != "server busy; retry" {
		t.Errorf("body = %s, want the backend's error verbatim", body)
	}
	if got := resp.Header.Get("X-Apt-Backend"); got != fake.URL {
		t.Errorf("X-Apt-Backend = %q, want %q", got, fake.URL)
	}
}

// teeWriter copies a handler's body bytes aside as they are written.
type teeWriter struct {
	http.ResponseWriter
	buf bytes.Buffer
}

func (w *teeWriter) Write(b []byte) (int, error) {
	w.buf.Write(b)
	return w.ResponseWriter.Write(b)
}

// TestRouterPassesBodiesThrough: the router relays a backend's /v1/batch
// body byte for byte — program mode, raw mode and the error body alike —
// so the wire schema a client sees does not depend on the routing tier.
func TestRouterPassesBodiesThrough(t *testing.T) {
	srv := serve.New(serve.Config{Workers: 1})
	written := make(chan []byte, 1)
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/batch" {
			srv.ServeHTTP(w, r)
			return
		}
		tw := &teeWriter{ResponseWriter: w}
		srv.ServeHTTP(tw, r)
		written <- tw.buf.Bytes()
	}))
	defer backend.Close()
	rt := newRouter(t, Config{Backends: []string{backend.URL}})
	rts := httptest.NewServer(rt)
	defer rts.Close()

	program := wire.BatchRequest{Fn: "f", Queries: []string{"between S T"}, Program: `
struct L { struct L *next; int d; axioms { A1: forall p, p.next+ <> p.eps; } };
void f(struct L *h) { struct L *p; p = h->next; S: p->d = 1; T: h->d = 2; }`}
	for name, c := range map[string]struct {
		req  wire.BatchRequest
		code int
	}{
		"program": {program, http.StatusOK},
		"raw":     {rawTreeReq(), http.StatusOK},
		"error":   {wire.BatchRequest{Program: "int main(", Queries: []string{"between S T"}}, http.StatusBadRequest},
	} {
		resp, body := postBatch(t, rts.URL, c.req)
		if resp.StatusCode != c.code {
			t.Fatalf("%s: status = %d, want %d: %s", name, resp.StatusCode, c.code, body)
		}
		if sent := <-written; !bytes.Equal(body, sent) {
			t.Errorf("%s: routed body differs from the backend's:\nrouted:  %s\nbackend: %s", name, body, sent)
		}
	}
}

// hedgePair is a two-backend harness: two scriptable fake backends plus a
// request whose shard backend a owns, so b is the hedge target.  The roles
// follow the ring: of the two servers, the owner of the request's
// fingerprint becomes a.  Handlers are fixed before the servers start, so
// there is no handler mutation to race with the serving goroutines.
type hedgePair struct {
	a, b      *httptest.Server
	aCanceled chan struct{}
	aGotReq   chan struct{}
	aGotOnce  *sync.Once
	bGotReq   chan struct{}
	bGotOnce  *sync.Once
	req       wire.BatchRequest
}

// newHedgePair builds the harness.  aH and bH handle /v1/batch on the owner
// and the hedge backend; both may use the pair's channels (created before
// the servers start, so channel operations are the only cross-goroutine
// communication).
func newHedgePair(t *testing.T, aH, bH func(p *hedgePair, w http.ResponseWriter, r *http.Request)) *hedgePair {
	t.Helper()
	p := &hedgePair{
		aCanceled: make(chan struct{}, 1),
		aGotReq:   make(chan struct{}),
		aGotOnce:  new(sync.Once),
		bGotReq:   make(chan struct{}),
		bGotOnce:  new(sync.Once),
	}
	p.req = wire.BatchRequest{
		AxiomSet: "?hedge pair?",
		Raw:      []wire.RawQuery{{SHandle: "h", THandle: "h", SField: "v", TField: "v"}},
	}
	mk := func() *httptest.Server {
		ts := httptest.NewUnstartedServer(nil)
		t.Cleanup(ts.Close)
		return ts
	}
	p.a, p.b = mk(), mk()
	// An unstarted server's listener already holds its address, so the
	// owner can be picked before either server runs a handler.
	url := func(ts *httptest.Server) string { return "http://" + ts.Listener.Addr().String() }
	if NewRing([]string{url(p.a), url(p.b)}).Owner(reqFingerprint(&p.req)) != url(p.a) {
		p.a, p.b = p.b, p.a
	}
	for _, s := range []struct {
		ts *httptest.Server
		h  func(p *hedgePair, w http.ResponseWriter, r *http.Request)
	}{{p.a, aH}, {p.b, bH}} {
		h := s.h
		s.ts.Config.Handler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/healthz" {
				fmt.Fprintln(w, "ok")
				return
			}
			h(p, w, r)
		})
		s.ts.Start()
	}
	return p
}

func (p *hedgePair) noteAGotReq() { p.aGotOnce.Do(func() { close(p.aGotReq) }) }
func (p *hedgePair) noteBGotReq() { p.bGotOnce.Do(func() { close(p.bGotReq) }) }

func okBody(who string) string {
	return fmt.Sprintf(`{"results":[],"dependent":false,"stats":{"axiom_set":%q}}`, who)
}

// TestHedgeWins: the owner hangs, the hedge answers — the client gets the
// hedge's verdict, the outcome counts as exactly one won hedge and one
// completion, and the owner's in-flight request is canceled.
func TestHedgeWins(t *testing.T) {
	p := newHedgePair(t,
		func(p *hedgePair, w http.ResponseWriter, r *http.Request) {
			// Drain the body so the server watches the connection: an
			// HTTP/1.1 server only cancels r.Context() on client disconnect
			// once the request body has been consumed.
			io.Copy(io.Discard, r.Body) //nolint:errcheck
			p.noteAGotReq()
			select { // hang until the router cancels the losing attempt
			case <-r.Context().Done():
				select {
				case p.aCanceled <- struct{}{}:
				default:
				}
			case <-time.After(10 * time.Second):
			}
		},
		func(p *hedgePair, w http.ResponseWriter, r *http.Request) {
			p.noteBGotReq()
			// Answer only once the owner's handler holds the request, so
			// the router's cancel reaches a request the owner saw; under
			// load the hedge could otherwise win before the owner's
			// request arrived, and the cancel would stop nothing.
			select {
			case <-p.aGotReq:
			case <-time.After(10 * time.Second):
			}
			w.Header().Set("Content-Type", "application/json")
			fmt.Fprint(w, okBody("hedge"))
		})

	rt := newRouter(t, Config{Backends: []string{p.a.URL, p.b.URL}, HedgeDelay: 5 * time.Millisecond})
	rts := httptest.NewServer(rt)
	defer rts.Close()

	resp, body := postBatch(t, rts.URL, p.req)
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "hedge") {
		t.Fatalf("status=%d body=%s, want the hedge's 200", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-Apt-Backend"); got != p.b.URL {
		t.Errorf("X-Apt-Backend = %q, want hedge backend %q", got, p.b.URL)
	}
	select {
	case <-p.aCanceled:
	case <-time.After(5 * time.Second):
		t.Error("losing attempt was never canceled")
	}
	if won, lost, spared := hedges(rt); won != 1 || lost != 0 || spared != 0 {
		t.Errorf("hedge outcomes won=%d lost=%d spared=%d, want exactly one won", won, lost, spared)
	}
	if accepted, completed, _, _ := lifecycle(rt); accepted != 1 || completed != 1 {
		t.Errorf("accepted=%d completed=%d, want 1/1 — a hedge must not double-count the completion", accepted, completed)
	}
}

// TestHedgeLoses: the hedge fires but the owner answers first — the owner's
// verdict is delivered, the hedge attempt is canceled, one lost hedge and
// one completion are counted.
func TestHedgeLoses(t *testing.T) {
	p := newHedgePair(t,
		func(p *hedgePair, w http.ResponseWriter, r *http.Request) {
			<-p.bGotReq // deterministically wait until the hedge is in flight
			w.Header().Set("Content-Type", "application/json")
			fmt.Fprint(w, okBody("owner"))
		},
		func(p *hedgePair, w http.ResponseWriter, r *http.Request) {
			io.Copy(io.Discard, r.Body) //nolint:errcheck // enable disconnect detection
			p.noteBGotReq()
			select { // lose: hang until canceled
			case <-r.Context().Done():
			case <-time.After(10 * time.Second):
			}
		})

	rt := newRouter(t, Config{Backends: []string{p.a.URL, p.b.URL}, HedgeDelay: 5 * time.Millisecond})
	rts := httptest.NewServer(rt)
	defer rts.Close()

	resp, body := postBatch(t, rts.URL, p.req)
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "owner") {
		t.Fatalf("status=%d body=%s, want the owner's 200", resp.StatusCode, body)
	}
	if won, lost, spared := hedges(rt); won != 0 || lost != 1 || spared != 0 {
		t.Errorf("hedge outcomes won=%d lost=%d spared=%d, want exactly one lost", won, lost, spared)
	}
	if accepted, completed, _, _ := lifecycle(rt); accepted != 1 || completed != 1 {
		t.Errorf("accepted=%d completed=%d, want 1/1", accepted, completed)
	}
}

// TestHedgeSpared: the owner answers well within the hedge delay — no hedge
// fires, the spared outcome is counted, the hedge backend never sees the
// request.
func TestHedgeSpared(t *testing.T) {
	p := newHedgePair(t,
		func(p *hedgePair, w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			fmt.Fprint(w, okBody("owner"))
		},
		func(p *hedgePair, w http.ResponseWriter, r *http.Request) {
			p.noteBGotReq()
			fmt.Fprint(w, okBody("hedge"))
		})

	rt := newRouter(t, Config{Backends: []string{p.a.URL, p.b.URL}, HedgeDelay: 10 * time.Second})
	rts := httptest.NewServer(rt)
	defer rts.Close()

	resp, body := postBatch(t, rts.URL, p.req)
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "owner") {
		t.Fatalf("status=%d body=%s, want the owner's 200", resp.StatusCode, body)
	}
	select {
	case <-p.bGotReq:
		t.Error("hedge backend saw a request despite the owner answering in time")
	default:
	}
	if won, lost, spared := hedges(rt); won != 0 || lost != 0 || spared != 1 {
		t.Errorf("hedge outcomes won=%d lost=%d spared=%d, want exactly one spared", won, lost, spared)
	}
}

// TestHedgeVersusDrain: the owner starts draining (503) while a hedge is in
// flight.  Exactly one verdict — the hedge's 200 — reaches the client; the
// 503 is swallowed as a failover, not surfaced alongside.
func TestHedgeVersusDrain(t *testing.T) {
	p := newHedgePair(t,
		func(p *hedgePair, w http.ResponseWriter, r *http.Request) {
			<-p.bGotReq // drain verdict lands while the hedge is in flight
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprint(w, `{"error":"shutting down; not accepting requests"}`)
		},
		func(p *hedgePair, w http.ResponseWriter, r *http.Request) {
			p.noteBGotReq()
			time.Sleep(20 * time.Millisecond) // answer after the owner's 503
			w.Header().Set("Content-Type", "application/json")
			fmt.Fprint(w, okBody("hedge"))
		})

	rt := newRouter(t, Config{Backends: []string{p.a.URL, p.b.URL}, HedgeDelay: 5 * time.Millisecond})
	rts := httptest.NewServer(rt)
	defer rts.Close()

	resp, body := postBatch(t, rts.URL, p.req)
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "hedge") {
		t.Fatalf("status=%d body=%s, want exactly the hedge's 200 verdict", resp.StatusCode, body)
	}
	if accepted, completed, _, _ := lifecycle(rt); accepted != 1 || completed != 1 {
		t.Errorf("accepted=%d completed=%d, want 1/1 — one request, one verdict", accepted, completed)
	}
	if won, _, _ := hedges(rt); won != 1 {
		t.Errorf("hedges won = %d, want 1 (the hedge delivered while the owner drained)", won)
	}
}

// TestAllBackendsDraining: when every member answers 503 the router
// propagates the drain answer rather than inventing its own — and still
// counts exactly one completion.
func TestAllBackendsDraining(t *testing.T) {
	drain := func(p *hedgePair, w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprint(w, `{"error":"shutting down; not accepting requests"}`)
	}
	p := newHedgePair(t, drain, drain)

	rt := newRouter(t, Config{Backends: []string{p.a.URL, p.b.URL}})
	rts := httptest.NewServer(rt)
	defer rts.Close()

	resp, body := postBatch(t, rts.URL, p.req)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d (body %s), want the backends' 503 propagated", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "shutting down") {
		t.Errorf("body = %s, want the backend's drain error", body)
	}
	if accepted, completed, _, _ := lifecycle(rt); accepted != 1 || completed != 1 {
		t.Errorf("accepted=%d completed=%d, want 1/1", accepted, completed)
	}
}

// TestFailoverOnDownBackend: the shard owner's listener is gone — the
// router fails over to the next ring member and marks the owner down.  The
// owner is chosen deterministically: whichever of the two servers the ring
// places the request on is the one that gets killed.
func TestFailoverOnDownBackend(t *testing.T) {
	s1, s2 := newBackendTS(t), newBackendTS(t)
	req := rawTreeReq()
	owner := NewRing([]string{s1.URL, s2.URL}).Owner(reqFingerprint(&req))
	live := s1
	dead := s2
	if owner == s1.URL {
		live, dead = s2, s1
	}
	deadURL := dead.URL
	dead.Close() // nothing listens on the owner's address anymore

	rt := newRouter(t, Config{Backends: []string{live.URL, deadURL}})
	rts := httptest.NewServer(rt)
	defer rts.Close()

	resp, body := postBatch(t, rts.URL, req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d (body %s), want 200 via failover", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-Apt-Backend"); got != live.URL {
		t.Errorf("X-Apt-Backend = %q, want the live backend %q", got, live.URL)
	}
	if up := rt.tel.Metrics().Snapshot().Gauges[telemetry.Labeled("route.backend_up", "backend", deadURL)]; up != 0 {
		t.Error("dead backend still marked up after a failed forward")
	}
}

// TestRouterMetrics: the /metrics exposition is the router's registry
// rendered — it parses under the strict validator and carries the cluster
// families under the one apt_route_ naming rule, the hand-written router
// series gone.  /statz is not served.
func TestRouterMetrics(t *testing.T) {
	backend := newBackendTS(t)
	rt := newRouter(t, Config{Backends: []string{backend.URL}})
	rts := httptest.NewServer(rt)
	defer rts.Close()

	if resp, body := postBatch(t, rts.URL, rawTreeReq()); resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status = %d (%s)", resp.StatusCode, body)
	}

	resp, err := http.Get(rts.URL + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read /metrics: %v", err)
	}
	if err := telemetry.ValidatePrometheus(body); err != nil {
		t.Fatalf("metrics do not validate: %v\n%s", err, body)
	}
	for _, want := range []string{
		fmt.Sprintf("apt_route_backend_up{backend=%q} 1\n", backend.URL),
		fmt.Sprintf("apt_route_backend_forwarded_total{backend=%q} 1\n", backend.URL),
		`apt_route_hedge_total{outcome="won"} 0`,
		`apt_route_hedge_total{outcome="lost"} 0`,
		`apt_route_hedge_total{outcome="spared"} 0`,
		"apt_route_requests_total 1\n",
		"apt_route_completed_total 1\n",
		"apt_route_panics_total 0\n",
		"apt_route_inflight 0\n",
		"apt_route_uptime_seconds ",
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	for _, gone := range []string{"apt_router_", "apt_backend_", "apt_hedge_total", "apt_ring_"} {
		if strings.Contains(string(body), gone) {
			t.Errorf("metrics still carry %q", gone)
		}
	}
	statz, err := http.Get(rts.URL + "/statz")
	if err != nil {
		t.Fatal(err)
	}
	statz.Body.Close()
	if statz.StatusCode != http.StatusNotFound {
		t.Errorf("router /statz = %d, want 404", statz.StatusCode)
	}
}
