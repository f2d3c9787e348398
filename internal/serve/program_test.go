package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"

	"repro/internal/wire"
)

// programRequest reads testdata/<c> (and its query file q, one line per
// query) into a program-mode request.
func programRequest(t *testing.T, c, fn, q string) wire.BatchRequest {
	t.Helper()
	src, err := os.ReadFile("../../testdata/" + c)
	if err != nil {
		t.Fatal(err)
	}
	lines := []string{q}
	if strings.HasSuffix(q, ".q") {
		b, err := os.ReadFile("../../testdata/" + q)
		if err != nil {
			t.Fatal(err)
		}
		lines = strings.Split(string(b), "\n")
	}
	return wire.BatchRequest{Program: string(src), Fn: fn, Queries: lines}
}

// postProgram sends req and returns the status and the body with its
// timings and trace id zeroed (see volatileStats).
func postProgram(t *testing.T, url string, req wire.BatchRequest) (int, string) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, volatileStats.ReplaceAllString(string(out), `"$1":0`)
}

// TestProgramTableByteIdentical: a server whose program table already
// holds a request answers it byte for byte as a fresh server does, apart
// from timings and trace id, and its serve.analyze span reports that it
// analysed nothing.
func TestProgramTableByteIdentical(t *testing.T) {
	reqs := []wire.BatchRequest{
		programRequest(t, "determinism/walk.c", "walk", "determinism/walk.q"),
		programRequest(t, "determinism/swap.c", "swap", "determinism/swap.q"),
		programRequest(t, "section33.c", "", "between S T"),
		programRequest(t, "figure1.c", "update", "loop U"),
	}
	srv := New(Config{Workers: 1, FlightK: 16})
	warm := httptest.NewServer(srv)
	defer warm.Close()
	for _, req := range reqs {
		if code, body := postProgram(t, warm.URL, req); code != http.StatusOK {
			t.Fatalf("cold request: %d %s", code, body)
		}
	}
	for i, req := range reqs {
		fresh := httptest.NewServer(New(Config{Workers: 1}))
		fcode, fbody := postProgram(t, fresh.URL, req)
		fresh.Close()
		wcode, wbody := postProgram(t, warm.URL, req)
		if fcode != http.StatusOK || wcode != fcode || wbody != fbody {
			t.Errorf("request %d: warm server answered %d %s\nfresh server answered %d %s", i, wcode, wbody, fcode, fbody)
		}
	}
	analyzed := map[int64]int{}
	for _, rec := range srv.FlightSnapshot().Slowest {
		for _, sp := range rec.Spans {
			if sp.Name == "serve.analyze" {
				analyzed[sp.Attrs["analyzed"].(int64)]++
			}
		}
	}
	if analyzed[1] != len(reqs) || analyzed[0] != len(reqs) {
		t.Errorf("serve.analyze spans by analyzed: %v, want %d of each of 1 and 0", analyzed, len(reqs))
	}
}

// TestProgramBadRequestsAlike: a request that fails — a parse error, an
// unknown fn, several functions and no fn, a bad line (one holding two
// queries among them), or more expanded queries than the server allows —
// answers with the same status and error as a fresh server does, on every
// send, before and after good requests over the same programs fill the
// table.
func TestProgramBadRequestsAlike(t *testing.T) {
	walk := programRequest(t, "determinism/walk.c", "walk", "determinism/walk.q") // 22 queries
	section33 := programRequest(t, "section33.c", "subr", "between S T")
	parse := section33
	parse.Program = strings.Replace(section33.Program, "{", "(", 1)
	unknown := section33
	unknown.Fn = "nosuch"
	two := section33
	two.Program += "\nint other(int n) { return n; }\n"
	two.Fn = ""
	badLine := section33
	badLine.Queries = []string{"between S"}
	joined := section33
	joined.Queries = []string{"between S T\nbetween S I"}
	cases := []struct {
		name string
		req  wire.BatchRequest
		code int
	}{
		{"parse error", parse, http.StatusBadRequest},
		{"unknown fn", unknown, http.StatusBadRequest},
		{"two functions, no fn", two, http.StatusBadRequest},
		{"bad line", badLine, http.StatusBadRequest},
		{"two queries in one line", joined, http.StatusBadRequest},
		{"over MaxQueries", walk, http.StatusRequestEntityTooLarge},
	}
	cfg := Config{Workers: 1, MaxQueries: 21}
	want := make([]string, len(cases))
	for i, tc := range cases {
		fresh := httptest.NewServer(New(cfg))
		code, body := postProgram(t, fresh.URL, tc.req)
		fresh.Close()
		if code != tc.code {
			t.Errorf("%s: fresh server answered %d %s, want %d", tc.name, code, body, tc.code)
		}
		want[i] = body
	}
	ts := httptest.NewServer(New(cfg))
	defer ts.Close()
	good := []wire.BatchRequest{section33, programRequest(t, "section33.c", "", "between S I")}
	short := walk
	short.Queries = walk.Queries[:3]
	good = append(good, short)
	for send := range 3 {
		if send == 1 {
			for _, req := range good {
				if code, body := postProgram(t, ts.URL, req); code != http.StatusOK {
					t.Fatalf("good request answered %d %s", code, body)
				}
			}
		}
		for i, tc := range cases {
			if code, body := postProgram(t, ts.URL, tc.req); code != tc.code || body != want[i] {
				t.Errorf("%s, send %d: answered %d %s, fresh server %d %s", tc.name, send, code, body, tc.code, want[i])
			}
		}
	}
}
