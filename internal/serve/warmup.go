package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"sync"

	"repro/internal/wire"
)

// Process warmup: the first execution of the request pipeline in a fresh
// process — HTTP dispatch, JSON decode, parse, analysis, proof search,
// response encode — is several times slower than steady state: lazily
// grown interner tables, first-touch heap pages, branch-cold code.
// Without this, that one-time cost lands on whichever request arrives
// first and masquerades as a cold cache in the cold/warm latency split.
// New drives a tiny synthetic request through a throwaway server once per
// process, so boot time (not the first request) pays it.
//
// The synthetic program's struct, fields, and axioms are deliberately
// unlike any real workload: warmup must heat the code paths, never a real
// axiom set's DFA entries or proof-memo namespace.  The throwaway server
// keeps every per-instance side effect (cache entries, flight-recorder
// entries, request counters) away from real servers.
const warmupProgram = `
struct ServeWarmup {
	struct ServeWarmup *wa;
	struct ServeWarmup *wb;
	int d;
	axioms {
		W1: forall p, p.wa <> p.wb;
		W2: forall p <> q, p.(wa|wb) <> q.(wa|wb);
	}
};

int warm(struct ServeWarmup *root) {
	struct ServeWarmup *p;
	struct ServeWarmup *q;
	p = root->wa;
S:	p->d = 1;
	q = root->wb;
T:	return q->d;
}
`

var warmupOnce sync.Once

// discardResponseWriter satisfies http.ResponseWriter for warmup requests;
// everything written is dropped.
type discardResponseWriter struct{ h http.Header }

func (w *discardResponseWriter) Header() http.Header         { return w.h }
func (w *discardResponseWriter) Write(p []byte) (int, error) { return len(p), nil }
func (w *discardResponseWriter) WriteHeader(int)             {}

// warmProcess runs the synthetic request end to end through a throwaway
// server.  Errors are ignored: warmup is purely an optimization and the
// synthetic program is fixed.
func warmProcess() {
	warmupOnce.Do(func() {
		srv := newServer(Config{Workers: 1})
		body, err := json.Marshal(wire.BatchRequest{
			Program: warmupProgram,
			Fn:      "warm",
			Queries: []string{"between S T"},
		})
		if err != nil {
			return
		}
		// Twice: the second pass exercises the warm path (memo and
		// DFA-cache hits), which real warm requests take.
		for i := 0; i < 2; i++ {
			req, err := http.NewRequest(http.MethodPost, "/v1/batch", bytes.NewReader(body))
			if err != nil {
				return
			}
			req.Header.Set("Content-Type", "application/json")
			srv.ServeHTTP(&discardResponseWriter{h: make(http.Header)}, req)
		}
	})
}
