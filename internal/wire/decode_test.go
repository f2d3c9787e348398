package wire

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// plainRequest and plainResponse carry no methods, so encoding/json decodes
// them by reflection: the oracle the wire decoder must agree with.
type (
	plainRequest  BatchRequest
	plainResponse BatchResponse
)

// goldenBodies returns the testdata/wire bodies by file name.
func goldenBodies(t testing.TB) map[string][]byte {
	t.Helper()
	files, err := filepath.Glob("../../testdata/wire/*.json")
	if err != nil || len(files) == 0 {
		t.Fatalf("no wire goldens: %v", err)
	}
	out := make(map[string][]byte, len(files))
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		out[filepath.Base(f)] = b
	}
	return out
}

// routerBodies are the request bodies the router passthrough test sends.
var routerBodies = []string{
	`{"program":"\nstruct L { struct L *next; int d; axioms { A1: forall p, p.next+ <> p.eps; } };\nvoid f(struct L *h) { struct L *p; p = h->next; S: p->d = 1; T: h->d = 2; }","fn":"f","queries":["between S T"]}`,
	`{"axiom_set":"A1: forall p, p.L <> p.R\nA2: forall p <> q, p.L|R <> q.L|R\nA3: forall p <> q, p.N <> q.N\nA4: forall p, p.(L|R|N)+ <> p.eps\n","axiom_set_name":"LLBinaryTree","raw":[{"s_handle":"h","s_path":"L","s_field":"val","s_write":true,"t_handle":"h","t_path":"R","t_field":"val"},{"s_handle":"h","s_path":"","s_field":"val","s_write":true,"t_handle":"k","t_path":"","t_field":"val","relation":"distinct"}]}`,
	`{"program":"int main(","queries":["between S T"]}`,
}

// ruleBodies pin each of encoding/json's decisions the decoder keeps; the
// differential check decides what each must decode to.
var ruleBodies = []string{
	// Unknown members are skipped, but checked.
	`{"x":{"a":[1,-2.5e+3,0.5E-2,true,false,null,"s\n",{}],"b":[]},"fn":"f"}`,
	`{"x":01}`, `{"x":1.}`, `{"x":-}`, `{"x":1e}`, `{"x":tru}`, `{"x":nul}`, `{"x":[1,]}`, `{"x":{"a":1,}}`, `{"x":{1:2}}`,
	`{"x":` + strings.Repeat("[", maxDepth-1) + strings.Repeat("]", maxDepth-1) + `}`,
	`{"x":` + strings.Repeat("[", maxDepth) + strings.Repeat("]", maxDepth) + `}`,
	// Keys match exactly, else by strings.EqualFold; the last one wins.
	`{"FN":"f","Program":"p","raw":[{"S_PATH":"L","ſ_path":"N","s_\u0070ath":"R"}]}`,
	`{"fn":"a","fn":"b"}`,
	`{"raw":[{"s_handle":"a"},{"s_handle":"b","t_write":true}],"raw":[{"t_path":"x"}],"raw":[{},{}]}`,
	`{"queries":["a","b"],"queries":[null],"queries":["c",null]}`,
	`{"results":[{"line":1,"result":"No"}],"stats":{"queries":1},"stats":{"timeouts":2}}`,
	// null keeps strings, bools, numbers and structs; it sets slices to nil.
	`{"fn":null,"verify":null,"timeout_ms":null,"queries":null,"raw":null,"raw":[null]}`,
	`{"results":null,"dependent":null,"stats":null}`,
	`{"queries":[],"raw":[]}`,
	`null`, ` null `,
	// Escapes, invalid UTF-8 and lone surrogates.
	`{"fn":"a\/b\\c\"d\b\f\n\r\t\u00e9\ud83d\ude00"}`,
	"{\"fn\":\"\xff\xfe a\xed\xa0\x80\"}",
	`{"fn":"\ud800","program":"\ud800\u0041","axiom_set":"\udc00\ud800x","axiom_set_name":"\ud800\udbff"}`,
	`{"fn":"\x"}`, `{"fn":"\'"}`, `{"fn":"\u12"}`, "{\"fn\":\"a\tb\"}", `{"fn":"abc`,
	// Integer fields take integer literals in range only.
	`{"timeout_ms":1.0}`, `{"timeout_ms":"1"}`, `{"timeout_ms":1e2}`, `{"timeout_ms":-0}`,
	`{"timeout_ms":9223372036854775807}`, `{"timeout_ms":9223372036854775808}`, `{"timeout_ms":-9223372036854775808}`,
	`{"results":[{"line":1.5}]}`, `{"stats":{"queries":"2"}}`,
	// Type mismatches.
	`{"fn":1}`, `{"verify":"true"}`, `{"queries":{}}`, `{"queries":[1]}`, `{"raw":[[]]}`, `{"stats":[]}`, `[]`, `""`, `1`, `true`,
	// Trailing data.
	`{"fn":"f"}garbage`, `{}{}`, "{}\n\t ", `{} x`, ``, ` `,
}

// checkDecode demands that dec and json.Unmarshal into the plain type both
// fail, or both succeed with equal values, and that json.Unmarshal through
// the UnmarshalJSON method agrees.  Each decode starts from a zero value and
// again from a fresh copy of a golden body, so merging into a filled value
// (elements reused in place) is compared too.
func checkDecode[T, P any](t *testing.T, body, golden []byte, dec func([]byte, *T) error, plain func(*T) *P) {
	t.Helper()
	for _, filled := range []bool{false, true} {
		var got, want, via T
		if filled {
			for _, v := range []*T{&got, &want, &via} {
				if err := json.Unmarshal(golden, plain(v)); err != nil {
					t.Fatal(err)
				}
			}
		}
		gotErr := dec(body, &got)
		wantErr := json.Unmarshal(body, plain(&want))
		viaErr := json.Unmarshal(body, &via)
		if (gotErr == nil) != (wantErr == nil) || (viaErr == nil) != (wantErr == nil) {
			t.Fatalf("%q: decoder error %v, UnmarshalJSON error %v, encoding/json error %v", body, gotErr, viaErr, wantErr)
		}
		if wantErr == nil && (!reflect.DeepEqual(got, want) || !reflect.DeepEqual(via, want)) {
			t.Fatalf("%q:\ndecoder:       %#v\nUnmarshalJSON: %#v\nencoding/json: %#v", body, got, via, want)
		}
	}
}

func checkRequest(t *testing.T, body, golden []byte) {
	checkDecode(t, body, golden, DecodeRequest, func(r *BatchRequest) *plainRequest { return (*plainRequest)(r) })
}

func checkResponse(t *testing.T, body, golden []byte) {
	checkDecode(t, body, golden, DecodeResponse, func(r *BatchResponse) *plainResponse { return (*plainResponse)(r) })
}

func seeds(t testing.TB) [][]byte {
	var out [][]byte
	for _, b := range goldenBodies(t) {
		out = append(out, b)
	}
	for _, s := range append(routerBodies, ruleBodies...) {
		out = append(out, []byte(s))
	}
	return out
}

func TestDecodeMatchesEncodingJSON(t *testing.T) {
	g := goldenBodies(t)
	for _, b := range seeds(t) {
		checkRequest(t, b, g["raw.request.json"])
		checkResponse(t, b, g["raw.response.json"])
	}
}

// TestDecodeRules spot-checks the decoded values of the rules the
// differential check covers.
func TestDecodeRules(t *testing.T) {
	var r BatchRequest
	if err := DecodeRequest([]byte(`{"FN":"f","raw":[{"S_PATH":"L"},{"ſ_path":"N"}],"fn":"g"}`), &r); err != nil {
		t.Fatal(err)
	}
	if r.Fn != "g" || r.Raw[0].SPath != "L" || r.Raw[1].SPath != "N" {
		t.Errorf("folded and duplicate keys decoded to %+v", r)
	}
	r = BatchRequest{Fn: "keep", Queries: []string{"q"}}
	if err := DecodeRequest([]byte(`{"fn":null,"queries":null}`), &r); err != nil || r.Fn != "keep" || r.Queries != nil {
		t.Errorf("null decoded to %+v, %v", r, err)
	}
	if err := DecodeRequest([]byte("{\"fn\":\"\\ud800\\udbff\xff\"}"), &r); err != nil || r.Fn != "\uFFFD\uFFFD\uFFFD" {
		t.Errorf("surrogates and invalid UTF-8 decoded to %q, %v", r.Fn, err)
	}
	for _, bad := range []string{`{"timeout_ms":1.0}`, `{"timeout_ms":"1"}`, `{"fn":"f"}garbage`, `{}{}`} {
		if err := DecodeRequest([]byte(bad), &r); err == nil {
			t.Errorf("%s decoded without error", bad)
		}
	}
}

func fieldNames[T any](fs []field[T]) []string {
	var out []string
	for _, f := range fs {
		out = append(out, f.name)
	}
	return out
}

// TestDecoderFieldsMatchTags: each type's field table names exactly its
// json tags, in order.
func TestDecoderFieldsMatchTags(t *testing.T) {
	for _, c := range []struct {
		v     any
		names []string
	}{
		{BatchRequest{}, fieldNames(requestFields)},
		{RawQuery{}, fieldNames(rawQueryFields)},
		{BatchResponse{}, fieldNames(responseFields)},
		{QueryResult{}, fieldNames(resultFields)},
		{BatchStats{}, fieldNames(statsFields)},
	} {
		typ := reflect.TypeOf(c.v)
		var tags []string
		for i := 0; i < typ.NumField(); i++ {
			tags = append(tags, strings.Split(typ.Field(i).Tag.Get("json"), ",")[0])
		}
		if !reflect.DeepEqual(tags, c.names) {
			t.Errorf("%s: tags %v, decoder fields %v", typ.Name(), tags, c.names)
		}
	}
}

// TestDecodeRequestAllocations bounds a raw-mode request's decode: the body
// string, the decoder, the destination, the raw-query slice's three growths
// and the one escaped string (the axiom set).
func TestDecodeRequestAllocations(t *testing.T) {
	body := goldenBodies(t)["raw.request.json"]
	n := testing.AllocsPerRun(200, func() {
		var r BatchRequest
		if err := DecodeRequest(body, &r); err != nil {
			t.Fatal(err)
		}
	})
	const max = 7
	if n > max {
		t.Errorf("DecodeRequest(raw.request.json) made %.0f allocations, want <= %d", n, max)
	}
}

func FuzzDecodeRequest(f *testing.F) {
	for _, b := range seeds(f) {
		f.Add(b)
	}
	golden := goldenBodies(f)["raw.request.json"]
	f.Fuzz(func(t *testing.T, body []byte) { checkRequest(t, body, golden) })
}

func FuzzDecodeResponse(f *testing.F) {
	for _, b := range seeds(f) {
		f.Add(b)
	}
	golden := goldenBodies(f)["raw.response.json"]
	f.Fuzz(func(t *testing.T, body []byte) { checkResponse(t, body, golden) })
}

// BenchmarkDecode times each golden body through the wire decoder and
// through encoding/json's reflection decoder.
func BenchmarkDecode(b *testing.B) {
	for name, body := range goldenBodies(b) {
		wire := func() error { var r BatchRequest; return DecodeRequest(body, &r) }
		reflection := func() error { var r plainRequest; return json.Unmarshal(body, &r) }
		if strings.Contains(name, "response") {
			wire = func() error { var r BatchResponse; return DecodeResponse(body, &r) }
			reflection = func() error { var r plainResponse; return json.Unmarshal(body, &r) }
		}
		for side, decode := range map[string]func() error{"wire": wire, "encoding-json": reflection} {
			b.Run(name+"/"+side, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					decode() //nolint:errcheck
				}
			})
		}
	}
}
