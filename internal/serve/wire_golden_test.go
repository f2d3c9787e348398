package serve

import (
	"bytes"
	"flag"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the wire goldens under testdata/wire")

// The response fields that vary run to run; the golden comparison zeroes
// them and compares every other byte.
var (
	wireTimings = regexp.MustCompile(`"(elapsed_us|service_us)":\d+`)
	wireTraceID = regexp.MustCompile(`"trace_id":"[0-9a-f]*"`)
)

// normalizeWire zeroes a response body's timings and trace id.
func normalizeWire(body []byte) []byte {
	body = wireTimings.ReplaceAll(body, []byte(`"$1":0`))
	return wireTraceID.ReplaceAll(body, []byte(`"trace_id":"<trace>"`))
}

// TestWireGolden pins the /v1/batch schema byte for byte: one program-mode
// and one raw-mode request with their responses, plus the error body, each
// against a fresh server.  Regenerate after an intentional wire change
// with: go test ./internal/serve -run TestWireGolden -update
func TestWireGolden(t *testing.T) {
	dir := filepath.Join("..", "..", "testdata", "wire")
	for _, c := range []struct {
		name string
		code int
	}{
		{"program", http.StatusOK},
		{"raw", http.StatusOK},
		{"error", http.StatusBadRequest},
	} {
		t.Run(c.name, func(t *testing.T) {
			req, err := os.ReadFile(filepath.Join(dir, c.name+".request.json"))
			if err != nil {
				t.Fatal(err)
			}
			ts := httptest.NewServer(New(Config{Workers: 1}))
			defer ts.Close()
			resp, err := http.Post(ts.URL+"/v1/batch", "application/json", bytes.NewReader(req))
			if err != nil {
				t.Fatal(err)
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != c.code {
				t.Fatalf("status = %d, want %d: %s", resp.StatusCode, c.code, body)
			}
			if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
				t.Errorf("Content-Type = %q", ct)
			}
			got := normalizeWire(body)
			golden := filepath.Join(dir, c.name+".response.json")
			if *update {
				if err := os.WriteFile(golden, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("missing golden (run with -update): %v", err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("response drifted:\n--- got ---\n%s--- want ---\n%s", got, want)
			}
		})
	}
}

// TestTrailingDataAnswers400: a body holding more than one JSON value is
// rejected whole, as the router rejects it, rather than answered from its
// first value.
func TestTrailingDataAnswers400(t *testing.T) {
	req, err := os.ReadFile(filepath.Join("..", "..", "testdata", "wire", "raw.request.json"))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(Config{Workers: 1}))
	defer ts.Close()
	for _, suffix := range []string{"garbage", string(req)} {
		resp, err := http.Post(ts.URL+"/v1/batch", "application/json", bytes.NewReader(append(bytes.Clone(req), suffix...)))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !bytes.Contains(body, []byte("bad request body")) {
			t.Errorf("body + %.8q: %d %s, want 400 bad request body", suffix, resp.StatusCode, body)
		}
	}
}
