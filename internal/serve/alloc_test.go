//go:build !race

package serve

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"testing"

	"repro/internal/telemetry"
)

// discardWriter keeps its header map and drops the body, so a measured
// request counts only the server's allocations.
type discardWriter struct {
	h    http.Header
	code int
}

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) Write(b []byte) (int, error) { return len(b), nil }
func (w *discardWriter) WriteHeader(code int)        { w.code = code }

// warmRequestAllocations sends the golden request body in testdata/wire/
// once to a metered server, then returns the allocations of one more,
// warm send: the request table, DFA cache and proof memo all hit.  The
// flight recorder keeps one record, the cold send's, so no faster warm
// send assembles one.
func warmRequestAllocations(t *testing.T, golden string) float64 {
	t.Helper()
	body, err := os.ReadFile("../../testdata/wire/" + golden)
	if err != nil {
		t.Fatal(err)
	}
	srv := New(Config{Workers: 1, FlightK: 1, Telemetry: telemetry.New(telemetry.NewRegistry(), nil)})
	rd := bytes.NewReader(body)
	r := httptest.NewRequest(http.MethodPost, "/v1/batch", rd)
	r.Body = io.NopCloser(rd)
	w := &discardWriter{h: http.Header{}}
	send := func() {
		rd.Reset(body)
		clear(w.h)
		w.code = 0
		srv.ServeHTTP(w, r)
		if w.code != http.StatusOK {
			t.Fatalf("%s answered %d", golden, w.code)
		}
	}
	send()
	return testing.AllocsPerRun(200, send)
}

// TestWarmRequestAllocations bounds a warm program-mode and a warm
// raw-mode request, ServeHTTP through the encoded answer, at the counts
// measured when response rows moved into the request table and the answer
// came to be appended by hand: 75 and 72, where the code before that
// change made 82 and 90.  Gated out under the race detector, whose
// instrumentation adds allocations of its own.
func TestWarmRequestAllocations(t *testing.T) {
	for _, c := range []struct {
		golden string
		max    float64
	}{
		{"program.request.json", 75},
		{"raw.request.json", 72},
	} {
		if got := warmRequestAllocations(t, c.golden); got > c.max {
			t.Errorf("a warm %s allocates %.0f, want <= %.0f", c.golden, got, c.max)
		}
	}
}
