package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/automata"
	"repro/internal/core"
	"repro/internal/wire"
)

// makeListProgram renders a Figure 1-style list-update loop whose link
// field carries the given name.  The field name appears in the axiom
// regexes, so each variant fingerprints as a distinct axiom set (Set.Key
// hashes axiom content, not struct names) and forces the engine pool to
// build — and LRU-reclaim — real engines.
func makeListProgram(link string) string {
	return fmt.Sprintf(`
struct Node {
	struct Node *%[1]s;
	int f;
	axioms {
		forall p <> q, p.%[1]s <> q.%[1]s;
		forall p, p.%[1]s+ <> p.eps;
	}
};

void update(struct Node *head) {
	struct Node *q;
	q = head;
	while (q != NULL) {
U:		q->f = fun();
		q = q->%[1]s;
	}
}
`, link)
}

// TestSoakConcurrentMixedDeadlines is the race-mode soak behind `make
// race-serve`: at least 8 concurrent clients hammer one server with mixed
// per-request deadlines across several axiom sets, then a final wave
// overlaps a drain.  It asserts the
// long-lived-process invariants: every response is answered (200/429/503,
// never a hang, drop, or 500), cache and memo sizes stay under the
// per-shard caps, accepted == completed after the drain, and every counter
// is monotone.
func TestSoakConcurrentMixedDeadlines(t *testing.T) {
	const (
		clients  = 8
		shardCap = 4
	)
	requests := 24
	if testing.Short() {
		requests = 6
	}

	srv := newMetered(Config{
		Workers:       2,
		MaxConcurrent: 4,
		QueueDepth:    2 * clients,
		DFAShardCap:   shardCap,
		MemoShardCap:  shardCap,
		// A ring larger than the whole soak's request count, so "every
		// degraded request is retained" is checkable exactly below.
		FlightK:    5,
		FlightRing: 1024,
	})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	type workload struct {
		req  wire.BatchRequest
		name string
	}
	workloads := []workload{
		{name: "tree", req: wire.BatchRequest{Program: treeProgram(t), Fn: "subr", Queries: []string{"between S T"}}},
		{name: "listLink", req: wire.BatchRequest{Program: makeListProgram("link"), Queries: []string{"loop U"}}},
		{name: "listNext", req: wire.BatchRequest{Program: makeListProgram("next"), Queries: []string{"loop U"}}},
		{name: "listFwd", req: wire.BatchRequest{Program: makeListProgram("fwd"), Queries: []string{"loop U"}}},
		{name: "listSucc", req: wire.BatchRequest{Program: makeListProgram("succ"), Queries: []string{"loop U"}}},
	}
	deadlines := []int64{0, 1, 50} // server default, pathologically tight, modest

	post := func(req wire.BatchRequest) (int, *wire.BatchResponse, error) {
		body, err := json.Marshal(req)
		if err != nil {
			return 0, nil, err
		}
		resp, err := http.Post(ts.URL+"/v1/batch", "application/json", bytes.NewReader(body))
		if err != nil {
			return 0, nil, err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return resp.StatusCode, nil, nil
		}
		var br wire.BatchResponse
		if err := json.NewDecoder(resp.Body).Decode(&br); err != nil {
			return resp.StatusCode, nil, err
		}
		return resp.StatusCode, &br, nil
	}

	var (
		mu       sync.Mutex
		answered int
		shed     int
	)
	var wg sync.WaitGroup
	errs := make(chan error, clients*requests)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < requests; i++ {
				req := workloads[(c+i)%len(workloads)].req
				req.DeadlineMS = deadlines[(c*requests+i)%len(deadlines)]
				code, br, err := post(req)
				if err != nil {
					errs <- fmt.Errorf("client %d req %d: %v", c, i, err)
					return
				}
				switch code {
				case http.StatusOK:
					if len(br.Results) == 0 {
						errs <- fmt.Errorf("client %d req %d: 200 with no results", c, i)
						return
					}
					for _, r := range br.Results {
						if r.Result != "No" && r.Result != "Maybe" && r.Result != "Yes" {
							errs <- fmt.Errorf("client %d req %d: result %q", c, i, r.Result)
							return
						}
					}
					mu.Lock()
					answered++
					mu.Unlock()
				case http.StatusTooManyRequests:
					mu.Lock()
					shed++
					mu.Unlock()
				default:
					errs <- fmt.Errorf("client %d req %d: status %d", c, i, code)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	mid := metrics(srv)
	if got := mid.Counters["serve.requests"]; got != int64(answered) {
		t.Errorf("accepted = %d, want %d answered requests", got, answered)
	}
	if got := mid.Counters["serve.shed"]; got != int64(shed) {
		t.Errorf("shed = %d, want %d", got, shed)
	}
	if got := mid.Counters["serve.panics"]; got != 0 {
		t.Errorf("panics = %d", got)
	}
	// The whole point of the per-shard caps: a long-lived server's caches
	// must stay bounded no matter how much traffic has passed through.
	bound := int64(automata.DefaultSharedShards * (shardCap + 1))
	memoBound := int64(core.DefaultMemoShards * (shardCap + 1))
	if got := mid.Gauges["serve.dfa_entries"]; got > bound {
		t.Errorf("pool DFA entries = %d exceed %d", got, bound)
	}
	if got := mid.Gauges["serve.decision_entries"]; got > bound {
		t.Errorf("pool decision entries = %d exceed %d", got, bound)
	}
	if got := mid.Gauges["serve.memo_entries"]; got > memoBound {
		t.Errorf("pool memo entries = %d exceed %d", got, memoBound)
	}

	// Final wave: overlap fresh requests with a drain.  Every request must
	// get a definite answer — completed if admitted, 503 if it arrived
	// after the drain began — and none may be silently dropped.
	const wave = 2 * clients
	codes := make(chan int, wave)
	var waveWG sync.WaitGroup
	for i := 0; i < wave; i++ {
		waveWG.Add(1)
		go func(i int) {
			defer waveWG.Done()
			code, _, err := post(workloads[i%len(workloads)].req)
			if err != nil {
				code = -1
			}
			codes <- code
		}(i)
	}
	time.Sleep(time.Millisecond) // let part of the wave in before draining
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	waveWG.Wait()
	close(codes)
	for code := range codes {
		switch code {
		case http.StatusOK, http.StatusTooManyRequests, http.StatusServiceUnavailable:
		default:
			t.Errorf("wave request answered %d", code)
		}
	}

	fin := metrics(srv)
	if !srv.Draining() {
		t.Error("server does not report draining")
	}
	if a, c := fin.Counters["serve.requests"], fin.Counters["serve.completed"]; a != c {
		t.Errorf("after drain: accepted %d != completed %d (in-flight work dropped)", a, c)
	}
	if got := fin.Gauges["serve.inflight"]; got != 0 {
		t.Errorf("after drain: inflight = %d", got)
	}
	// Monotonicity: the drain never rolls a counter back.
	for name, v := range mid.Counters {
		if fin.Counters[name] < v {
			t.Errorf("counter %s regressed: %d mid-soak, %d after the drain", name, v, fin.Counters[name])
		}
	}

	// Flight-recorder invariants under concurrency: the ring outsizes the
	// soak, so it must hold exactly the requests the server counted as
	// degraded; the slow set is bounded by K and ordered slowest-first; and
	// every retained record carries a span tree and a degradation profile
	// consistent with its bucket.
	snap := srv.FlightSnapshot()
	if degraded := fin.Counters["serve.degraded_requests"]; snap.DegradedRecorded != degraded {
		t.Errorf("flight recorder holds %d degraded requests, server counted %d",
			snap.DegradedRecorded, degraded)
	}
	if got := fin.Counters["serve.flight_degraded_recorded"]; got != snap.DegradedRecorded {
		t.Errorf("serve.flight_degraded_recorded = %d, recorder says %d", got, snap.DegradedRecorded)
	}
	if int64(len(snap.Degraded)) != snap.DegradedRecorded {
		t.Errorf("degraded ring returned %d records, recorded %d (ring must not have wrapped)",
			len(snap.Degraded), snap.DegradedRecorded)
	}
	if len(snap.Slowest) > snap.K {
		t.Errorf("slow set holds %d records, cap %d", len(snap.Slowest), snap.K)
	}
	for i := 1; i < len(snap.Slowest); i++ {
		if snap.Slowest[i].DurUS > snap.Slowest[i-1].DurUS {
			t.Errorf("slowest[%d] (%dus) out of order after %dus", i, snap.Slowest[i].DurUS, snap.Slowest[i-1].DurUS)
		}
	}
	for i, rec := range snap.Degraded {
		if !rec.Degraded() {
			t.Errorf("degraded[%d] has no degraded queries", i)
		}
		if len(rec.Spans) == 0 {
			t.Errorf("degraded[%d] retained no spans", i)
		}
		if rec.TraceID == "" {
			t.Errorf("degraded[%d] has no trace id", i)
		}
	}
}

// rawSetRequest is a raw-mode request over the i-th of a family of
// distinct two-field axiom sets, so each i searches its own proofs cold.
func rawSetRequest(i int) wire.BatchRequest {
	return wire.BatchRequest{
		AxiomSet: fmt.Sprintf("A1: forall p, p.L%[1]d <> p.R%[1]d\nA2: forall p <> q, p.L%[1]d|R%[1]d <> q.L%[1]d|R%[1]d\n", i),
		Raw: []wire.RawQuery{{SHandle: "h", SPath: fmt.Sprintf("L%d", i), SField: "val", SWrite: true,
			THandle: "h", TPath: fmt.Sprintf("R%d", i), TField: "val"}},
	}
}

// TestScrapeDuringColdBuilds: /metrics and /metrics.json are scraped
// continuously while raw requests over many distinct axiom sets fill the
// caches cold.  A gauge reading the caches under the registry's lock could
// deadlock against a cache holding its own lock while it resolves an
// instrument in the registry, so the test pins that gauge functions run
// outside it; under -race it also checks the reads are safe.
func TestScrapeDuringColdBuilds(t *testing.T) {
	srv := newMetered(Config{Workers: 2})
	// Closed on success only: Close waits for in-flight requests, which a
	// deadlock never finishes.
	ts := httptest.NewServer(srv)

	done := make(chan struct{})
	stop := make(chan struct{})
	var scrapers sync.WaitGroup
	for _, path := range []string{"/metrics", "/metrics.json"} {
		scrapers.Add(1)
		go func(path string) {
			defer scrapers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Get(ts.URL + path)
				if err != nil {
					t.Error(err)
					return
				}
				io.Copy(io.Discard, resp.Body) //nolint:errcheck
				resp.Body.Close()
			}
		}(path)
	}
	go func() {
		defer close(done)
		const sets = 12
		var clients sync.WaitGroup
		for c := 0; c < 3; c++ {
			clients.Add(1)
			go func(c int) {
				defer clients.Done()
				for i := 0; i < sets; i++ {
					body, _ := json.Marshal(rawSetRequest((c + i) % sets))
					resp, err := http.Post(ts.URL+"/v1/batch", "application/json", bytes.NewReader(body))
					if err != nil {
						t.Error(err)
						return
					}
					io.Copy(io.Discard, resp.Body) //nolint:errcheck
					resp.Body.Close()
					if resp.StatusCode != http.StatusOK {
						t.Errorf("raw set %d: status %d", (c+i)%sets, resp.StatusCode)
					}
				}
			}(c)
		}
		clients.Wait()
	}()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("requests stalled while /metrics was scraped: a gauge deadlocked against a cold batch")
	}
	close(stop)
	scrapers.Wait()
	ts.Close()
}
