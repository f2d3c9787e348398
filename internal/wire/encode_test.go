package wire

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
)

// checkEncode fails unless AppendResponse encodes resp byte for byte as a
// json.Encoder with HTML escaping off encodes it, trailing newline
// included.
func checkEncode(t *testing.T, resp *BatchResponse) {
	t.Helper()
	var want bytes.Buffer
	enc := json.NewEncoder(&want)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(plainResponse(*resp)); err != nil {
		t.Fatal(err)
	}
	if got := AppendResponse(nil, resp); !bytes.Equal(got, want.Bytes()) {
		t.Errorf("AppendResponse(%+v)\n got %q\nwant %q", resp, got, want.Bytes())
	}
}

// fuzzResponse builds a response from fuzzer inputs: nil results for a
// negative n, else n%5 results whose strings are the '|'-separated parts
// of text in turn, with integers derived from num.
func fuzzResponse(n int8, text string, num int64, dep bool) *BatchResponse {
	parts := strings.Split(text, "|")
	k := 0
	next := func() string {
		k++
		return parts[(k-1)%len(parts)]
	}
	resp := &BatchResponse{Dependent: dep}
	if n >= 0 {
		resp.Results = make([]QueryResult, n%5)
	}
	for i := range resp.Results {
		resp.Results[i] = QueryResult{Line: int(num) + i, Query: next(), S: next(), T: next(),
			Result: next(), Kind: next(), Reason: next()}
	}
	resp.Stats = BatchStats{
		Queries: len(resp.Results), ElapsedUS: num, ServiceUS: -num, AxiomSet: text,
		Timeouts: num / 2, TraceID: parts[len(parts)-1], DegradedQueries: num % 5, DeadlineExpired: num % 3,
	}
	return resp
}

// encodeSeeds cover nil and empty results, invalid UTF-8, every control
// byte, U+2028/U+2029, <>& (left raw), negative and zero integers, and the
// omitempty stats members empty and set.
var encodeSeeds = []struct {
	n    int8
	text string
	num  int64
	dep  bool
}{
	{-1, "", 0, false},
	{0, "", 0, true},
	{0, "trace", 15, false},
	{1, "query|write h.L->d|read h.R->d|No|flow|disjointness theorem proved|4bf92f3577b34da6a3ce929d0e0e4736", 7, true},
	{3, "\xff\xfe a\xed\xa0\x80|\xc3|ok\xe2\x82", -9, true},
	{4, "\x00\x01\x07\b\t\n\v\f\r\x1b\x1f\x7f|\"quoted\" \\back\\slash|/", 1, false},
	{2, "line\u2028sep\u2029para|<script>&amp;</script>|p->q", -1 << 63, true},
	{4, "\u00e9|\u65e5\u672c|\U0001F600|\ufffd|", 1<<63 - 1, false},
}

// TestEncodeMatchesEncodingJSON: the encoding of every seed response, and
// of every golden response body decoded, is encoding/json's, and
// WriteResponse writes what WriteJSON writes.
func TestEncodeMatchesEncodingJSON(t *testing.T) {
	for _, s := range encodeSeeds {
		checkEncode(t, fuzzResponse(s.n, s.text, s.num, s.dep))
	}
	for name, body := range goldenBodies(t) {
		if !strings.HasSuffix(name, "response.json") || name == "error.response.json" {
			continue
		}
		var resp BatchResponse
		if err := DecodeResponse(body, &resp); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		checkEncode(t, &resp)

		got, want := httptest.NewRecorder(), httptest.NewRecorder()
		WriteResponse(got, 200, &resp)
		WriteJSON(want, 200, &resp)
		if got.Code != want.Code || got.Header().Get("Content-Type") != want.Header().Get("Content-Type") ||
			!bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
			t.Errorf("%s: WriteResponse wrote %d %q %q, WriteJSON %d %q %q", name,
				got.Code, got.Header().Get("Content-Type"), got.Body.Bytes(),
				want.Code, want.Header().Get("Content-Type"), want.Body.Bytes())
		}
	}
}

func FuzzEncodeResponse(f *testing.F) {
	for _, s := range encodeSeeds {
		f.Add(s.n, s.text, s.num, s.dep)
	}
	f.Fuzz(func(t *testing.T, n int8, text string, num int64, dep bool) {
		checkEncode(t, fuzzResponse(n, text, num, dep))
	})
}

// TestWriteResponseAllocations: a warm AppendResponse into a reused
// buffer allocates nothing.
func TestWriteResponseAllocations(t *testing.T) {
	var resp BatchResponse
	if err := DecodeResponse(goldenBodies(t)["program.response.json"], &resp); err != nil {
		t.Fatal(err)
	}
	buf := AppendResponse(nil, &resp)
	if got := testing.AllocsPerRun(200, func() { buf = AppendResponse(buf[:0], &resp) }); got > 0 {
		t.Errorf("a warm AppendResponse allocates %.1f per call, want 0", got)
	}
}

// BenchmarkEncode times the program-mode golden response through
// AppendResponse and through a json.Encoder.
func BenchmarkEncode(b *testing.B) {
	var resp BatchResponse
	if err := DecodeResponse(goldenBodies(b)["program.response.json"], &resp); err != nil {
		b.Fatal(err)
	}
	b.Run("wire", func(b *testing.B) {
		b.ReportAllocs()
		var buf []byte
		for i := 0; i < b.N; i++ {
			buf = AppendResponse(buf[:0], &resp)
		}
	})
	b.Run("encoding-json", func(b *testing.B) {
		b.ReportAllocs()
		var buf bytes.Buffer
		for i := 0; i < b.N; i++ {
			buf.Reset()
			enc := json.NewEncoder(&buf)
			enc.SetEscapeHTML(false)
			enc.Encode(&resp) //nolint:errcheck
		}
	})
}
