package scenario

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/wire"
)

// stubBackend answers every /v1/batch with one result per query line, each
// carrying the given verdict string, the way a misbehaving server might.
func stubBackend(t *testing.T, verdict func(line int) string) *httptest.Server {
	t.Helper()
	return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var req wire.BatchRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			wire.WriteJSONError(w, http.StatusBadRequest, err.Error())
			return
		}
		resp := wire.BatchResponse{Results: []wire.QueryResult{}}
		for i, q := range req.Queries {
			resp.Results = append(resp.Results, wire.QueryResult{Line: i, Query: q, Result: verdict(i)})
		}
		wire.WriteJSON(w, http.StatusOK, resp)
	}))
}

// The client folds exactly the daemon's three spellings.
func TestServeClientFoldsVerdicts(t *testing.T) {
	spell := []string{"No", "Maybe", "Yes"}
	stub := stubBackend(t, func(line int) string { return spell[line] })
	defer stub.Close()

	got, err := newServeClient(stub.URL).batchVerdicts(context.Background(), "", "f", []string{"a", "b", "c"})
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"no", "maybe", "yes"}; strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("verdicts = %v, want %v", got, want)
	}
}

// A miscased or unknown verdict fails the farm's serve cross-check instead
// of folding to maybe (which the farm would count as a softening at most).
func TestServeCrossCheckRejectsUnknownVerdicts(t *testing.T) {
	for _, bad := range []string{"no", "bogus"} {
		t.Run(bad, func(t *testing.T) {
			stub := stubBackend(t, func(int) string { return bad })
			defer stub.Close()

			f, err := NewFarm(Config{Seed: 2, Programs: 5, ServeURL: stub.URL})
			if err != nil {
				t.Fatal(err)
			}
			_, _, err = f.Run(context.Background())
			if err == nil || !strings.Contains(err.Error(), "serve cross-check") || !strings.Contains(err.Error(), `"`+bad+`"`) {
				t.Fatalf("Run error = %v, want a serve cross-check failure naming %q", err, bad)
			}
		})
	}
}
