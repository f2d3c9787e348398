package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/automata"
	"repro/internal/core"
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
// per-request deadlines across more axiom sets than the engine pool may
// keep resident, then a final wave overlaps a drain.  It asserts the
// long-lived-process invariants: every response is answered (200/429/503,
// never a hang, drop, or 500), cache and memo sizes stay under the
// per-shard caps, accepted == completed after the drain, and the admission
// counters are monotone.
func TestSoakConcurrentMixedDeadlines(t *testing.T) {
	const (
		clients    = 8
		maxEngines = 3
		shardCap   = 4
	)
	requests := 24
	if testing.Short() {
		requests = 6
	}

	srv := New(Config{
		Workers:       2,
		MaxConcurrent: 4,
		QueueDepth:    2 * clients,
		MaxEngines:    maxEngines,
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
		req  BatchRequest
		name string
	}
	workloads := []workload{
		{name: "tree", req: BatchRequest{Program: treeProgram(t), Fn: "subr", Queries: []string{"between S T"}}},
		{name: "listLink", req: BatchRequest{Program: makeListProgram("link"), Queries: []string{"loop U"}}},
		{name: "listNext", req: BatchRequest{Program: makeListProgram("next"), Queries: []string{"loop U"}}},
		{name: "listFwd", req: BatchRequest{Program: makeListProgram("fwd"), Queries: []string{"loop U"}}},
		{name: "listSucc", req: BatchRequest{Program: makeListProgram("succ"), Queries: []string{"loop U"}}},
	}
	deadlines := []int64{0, 1, 50} // server default, pathologically tight, modest

	post := func(req BatchRequest) (int, *BatchResponse, error) {
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
		var br BatchResponse
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

	mid := srv.StatzSnapshot()
	if mid.Accepted != int64(answered) {
		t.Errorf("accepted = %d, want %d answered requests", mid.Accepted, answered)
	}
	if mid.Shed != int64(shed) {
		t.Errorf("shed = %d, want %d", mid.Shed, shed)
	}
	if mid.Panics != 0 {
		t.Errorf("panics = %d", mid.Panics)
	}
	if mid.EnginesResident > maxEngines {
		t.Errorf("engines resident = %d, cap %d", mid.EnginesResident, maxEngines)
	}
	if len(workloads) > maxEngines && mid.EnginesEvicted == 0 {
		t.Error("no engine was ever LRU-reclaimed despite axiom sets > MaxEngines")
	}
	// The whole point of the per-shard caps: a long-lived server's caches
	// must stay bounded no matter how much traffic has passed through.
	bound := automata.DefaultSharedShards * (shardCap + 1)
	memoBound := core.DefaultMemoShards * (shardCap + 1)
	if mid.DFALen > bound {
		t.Errorf("pool DFALen = %d exceeds %d", mid.DFALen, bound)
	}
	if mid.OpsLen > bound {
		t.Errorf("pool OpsLen = %d exceeds %d", mid.OpsLen, bound)
	}
	if mid.MemoEntries > memoBound {
		t.Errorf("pool MemoEntries = %d exceeds %d", mid.MemoEntries, memoBound)
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

	fin := srv.StatzSnapshot()
	if !fin.Draining {
		t.Error("statz does not report draining")
	}
	if fin.Accepted != fin.Completed {
		t.Errorf("after drain: accepted %d != completed %d (in-flight work dropped)", fin.Accepted, fin.Completed)
	}
	if fin.Inflight != 0 {
		t.Errorf("after drain: inflight = %d", fin.Inflight)
	}
	// Monotonicity: the drain never rolls a counter back.
	if fin.Accepted < mid.Accepted || fin.Completed < mid.Completed || fin.Shed < mid.Shed {
		t.Errorf("counters regressed: mid %+v fin %+v", mid, fin)
	}

	// Flight-recorder invariants under concurrency: the ring outsizes the
	// soak, so it must hold exactly the requests the server counted as
	// degraded; the slow set is bounded by K and ordered slowest-first; and
	// every retained record carries a span tree and a degradation profile
	// consistent with its bucket.
	snap := srv.FlightSnapshot()
	if snap.DegradedRecorded != fin.DegradedRequests {
		t.Errorf("flight recorder holds %d degraded requests, server counted %d",
			snap.DegradedRecorded, fin.DegradedRequests)
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
