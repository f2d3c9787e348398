package exec

import (
	"fmt"
	"os"
	"reflect"
	"strings"
	"sync"
	"testing"
	"unsafe"

	"repro/internal/analysis"
	"repro/internal/axiom"
	"repro/internal/core"
	"repro/internal/lang"
	"repro/internal/wire"
)

// walkRequest is testdata/determinism/walk.{c,q} as a program-mode request.
func walkRequest(t testing.TB) *wire.BatchRequest {
	t.Helper()
	src, err := os.ReadFile("../../testdata/determinism/walk.c")
	if err != nil {
		t.Fatal(err)
	}
	q, err := os.ReadFile("../../testdata/determinism/walk.q")
	if err != nil {
		t.Fatal(err)
	}
	return &wire.BatchRequest{Program: string(src), Fn: "walk", Queries: strings.Split(string(q), "\n")}
}

// rawRequest decodes the raw-mode wire golden request.
func rawRequest(t testing.TB) *wire.BatchRequest {
	t.Helper()
	b, err := os.ReadFile("../../testdata/wire/raw.request.json")
	if err != nil {
		t.Fatal(err)
	}
	var req wire.BatchRequest
	if err := wire.DecodeRequest(b, &req); err != nil {
		t.Fatal(err)
	}
	return &req
}

// wideRequest is a raw request over a set that declares the field LN, so
// its path "LN" is that one field, where over the golden's tree set it is
// L·N: a path's parse depends on its set's alphabet.
func wideRequest() *wire.BatchRequest {
	return &wire.BatchRequest{AxiomSet: "forall p, p.LN+ <> p.eps",
		Raw: []wire.RawQuery{{SHandle: "h", SPath: "LN", THandle: "h", TPath: "LN.LN", Relation: "same"}}}
}

// freshProgram builds the request's queries without the table: a raw
// request's the way perfbench's reference does, a program-mode request's
// the way the server did before it had a table.
func freshProgram(t testing.TB, req *wire.BatchRequest) *Program {
	t.Helper()
	if len(req.Raw) > 0 {
		name := req.AxiomSetName
		if name == "" {
			name = "raw"
		}
		ax, err := axiom.ParseSet(name, req.AxiomSet)
		if err != nil {
			t.Fatal(err)
		}
		queries, err := BuildRawQueries(ax, req.Raw)
		if err != nil {
			t.Fatal(err)
		}
		rows := make([]wire.QueryResult, len(queries))
		for i, q := range queries {
			rows[i] = wire.QueryResult{Line: i, Query: renderRawQuery(req.Raw[i]), S: q.S.String(), T: q.T.String()}
		}
		return &Program{Axioms: ax, Queries: queries, Rows: rows}
	}
	prog, err := lang.Parse(req.Program)
	if err != nil {
		t.Fatal(err)
	}
	fn := req.Fn
	if fn == "" {
		fn = prog.Funcs[0].Name
	}
	res, err := analysis.Analyze(prog, fn, analysis.Options{InferTypeAxioms: true, AssumeLoopInvariants: req.AssumeInvariants})
	if err != nil {
		t.Fatal(err)
	}
	queries, origins, err := res.ExpandQueryLines(req.Queries, func(n int) string { return fmt.Sprintf("queries[%d]", n) })
	if err != nil {
		t.Fatal(err)
	}
	rows := make([]wire.QueryResult, len(queries))
	for i, q := range queries {
		rows[i] = wire.QueryResult{Line: origins[i], Query: req.Queries[origins[i]], S: q.S.String(), T: q.T.String()}
	}
	return &Program{Fn: fn, Axioms: res.Axioms, Queries: queries, Rows: rows}
}

// renderQuery is everything a query asks, as text.
func renderQuery(q core.Query) string {
	return fmt.Sprintf("%s %q | %s %q | %v | %s | %s | %s %s", q.S, q.S.Type, q.T, q.T.Type, q.Relation,
		q.SGuards, q.TGuards, q.Axioms.StructName, q.Axioms.Key())
}

// sameProgram fails unless got asks what want asks, in the same order,
// with the same response rows: each from the same line, echoing the same
// query and rendering the same accesses.
func sameProgram(t testing.TB, what string, got, want *Program) {
	t.Helper()
	if got.Fn != want.Fn || got.Axioms.StructName != want.Axioms.StructName || got.Axioms.Key() != want.Axioms.Key() ||
		len(got.Queries) != len(want.Queries) || len(got.Rows) != len(want.Rows) {
		t.Fatalf("%s: fn %s, axioms %s %q, %d queries with %d rows; want %s, %s %q, %d with %d", what,
			got.Fn, got.Axioms.StructName, got.Axioms.Key(), len(got.Queries), len(got.Rows),
			want.Fn, want.Axioms.StructName, want.Axioms.Key(), len(want.Queries), len(want.Rows))
	}
	for i := range got.Queries {
		if g, w := renderQuery(got.Queries[i]), renderQuery(want.Queries[i]); g != w {
			t.Errorf("%s: query %d = %s, want %s", what, i, g, w)
		}
		if got.Rows[i] != want.Rows[i] {
			t.Errorf("%s: row %d = %+v, want %+v", what, i, got.Rows[i], want.Rows[i])
		}
	}
}

// matchBuild sends each request twice and fails unless the table builds
// what a fresh build builds, cold and warm, and the warm request builds
// nothing and gets the stored Program back.
func matchBuild(t *testing.T, p *Pool, reqs ...*wire.BatchRequest) {
	t.Helper()
	for _, req := range reqs {
		want := freshProgram(t, req)
		var first *Program
		for pass, wantBuilt := range []int{1, 0} {
			what := fmt.Sprintf("%s pass %d", want.Axioms.StructName, pass)
			got, built, err := p.Queries(req, 4096, nil)
			if err != nil {
				t.Fatal(err)
			}
			sameProgram(t, what, got, want)
			if built != wantBuilt {
				t.Errorf("%s built %d, want %d", what, built, wantBuilt)
			}
			if pass == 0 {
				first = got
			} else if got != first {
				t.Errorf("%s: a warm request got a new Program, want the stored one", what)
			}
		}
	}
}

// TestProgramQueriesMatchBuild: the table builds what parse, analysis and
// expansion build for a program-mode request, cold and warm; the warm
// request builds nothing and gets the stored Program back.
func TestProgramQueriesMatchBuild(t *testing.T) {
	matchBuild(t, NewPool(PoolConfig{Workers: 1}, nil), walkRequest(t))
}

// TestRawQueriesMatchBuild: the table builds what ParseSet plus
// BuildRawQueries build for a raw request, cold and warm, and a path's
// parse follows its own set's alphabet.
func TestRawQueriesMatchBuild(t *testing.T) {
	p := NewPool(PoolConfig{Workers: 1}, nil)
	matchBuild(t, p, rawRequest(t), wideRequest())
	wide, _, _ := p.Queries(wideRequest(), 4096, nil)
	if got := wide.Queries[0].S.Path.String(); got != "LN" {
		t.Errorf("LN over the wide set parsed as %s, want the one field LN", got)
	}
}

// TestProgramKeysDistinct: fn as sent, assume_invariants and the query
// lines, split where the request splits them, are each part of a program
// key; the axiom set's name and text and every field of every raw query
// are part of a raw key; and no raw key equals a program key.
func TestProgramKeysDistinct(t *testing.T) {
	section33, err := os.ReadFile("../../testdata/section33.c")
	if err != nil {
		t.Fatal(err)
	}
	base := wire.BatchRequest{Program: string(section33), Fn: "subr", Queries: []string{"between S T", "between S I"}}
	noFn := base
	noFn.Fn = ""
	assume := base
	assume.AssumeInvariants = true
	joined := base
	joined.Queries = []string{"between S T\nbetween S I"}
	long := base
	long.Queries = []string{strings.Repeat("between S T ", 20), ""}
	programs := []wire.BatchRequest{base, noFn, assume, joined, long}

	raw := *rawRequest(t)
	noName := *wideRequest()
	rawTwin := wire.BatchRequest{AxiomSetName: "raw", AxiomSet: noName.AxiomSet, Raw: noName.Raw}
	raws := []wire.BatchRequest{raw, noName}

	// Every key reads back as a request with the same key, and a raw key
	// is never a program key.
	keys := map[string]bool{}
	for i, req := range append(append([]wire.BatchRequest{}, programs...), raws...) {
		k := string(appendKey(nil, &req))
		if back := string(appendKey(nil, decodeKey(k))); back != k {
			t.Errorf("request %d: key %q reads back as %q", i, k, back)
		}
		if (k[0] == rawKey) != (len(req.Raw) > 0) {
			t.Errorf("request %d: key leads with mode byte %q", i, k[0])
		}
		keys[k] = true
	}
	if programKey == rawKey || len(keys) != len(programs)+len(raws) {
		t.Errorf("%d distinct keys for %d requests", len(keys), len(programs)+len(raws))
	}
	if string(appendKey(nil, &rawTwin)) != string(appendKey(nil, &noName)) {
		t.Error("a raw request without a set name keys apart from one naming it \"raw\"")
	}

	// Changing any one field of a raw query, found by reflection so a
	// field added later cannot be left out, changes the key, and the key
	// reads back with the changed field.
	rq := raw.Raw[1]
	baseKey := string(appendKey(nil, &raw))
	rt := reflect.TypeOf(rq)
	for f := range rt.NumField() {
		changed := rq
		v := reflect.ValueOf(&changed).Elem().Field(f)
		switch v.Kind() {
		case reflect.String:
			v.SetString(v.String() + "x")
		case reflect.Bool:
			v.SetBool(!v.Bool())
		default:
			t.Fatalf("wire.RawQuery.%s is a %s: teach the key and this test about it", rt.Field(f).Name, v.Kind())
		}
		req := raw
		req.Raw = append([]wire.RawQuery{}, raw.Raw...)
		req.Raw[1] = changed
		k := string(appendKey(nil, &req))
		if k == baseKey {
			t.Errorf("changing wire.RawQuery.%s leaves the key unchanged", rt.Field(f).Name)
		}
		if back := decodeKey(k).Raw[1]; back != changed {
			t.Errorf("changing wire.RawQuery.%s: the key reads back as %+v, want %+v", rt.Field(f).Name, back, changed)
		}
	}
	for _, change := range []func(*wire.BatchRequest){
		func(r *wire.BatchRequest) { r.AxiomSetName += "x" },
		func(r *wire.BatchRequest) { r.AxiomSet += " " },
	} {
		req := raw
		change(&req)
		if string(appendKey(nil, &req)) == baseKey {
			t.Errorf("changing the axiom set's name or text to %q %q leaves the key unchanged", req.AxiomSetName, req.AxiomSet)
		}
	}

	p := NewPool(PoolConfig{Workers: 1}, nil)
	for i, req := range []wire.BatchRequest{base, noFn, assume, raw, noName} {
		got, built, err := p.Queries(&req, 4096, nil)
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		if built != 1 {
			t.Errorf("request %d hit another request's entry", i)
		}
		sameProgram(t, fmt.Sprintf("request %d", i), got, freshProgram(t, &req))
	}
	if n := len(p.table.entries); n != 5 {
		t.Errorf("table holds %d entries, want 5", n)
	}
	// One line holding two queries is a bad line, not the two lines.
	for range 2 {
		if _, built, err := p.Queries(&joined, 4096, nil); err == nil || built != 1 {
			t.Errorf("a line with a newline in it: built %d, error %v; want a fresh error", built, err)
		}
	}
}

// badRequest is a request that fails, with the error a fresh build
// reports; "" where the first send's error is the one to repeat.
type badRequest struct {
	req  wire.BatchRequest
	want string
}

// errorsNotStored fails unless each bad request reports its error on
// every send, each request over its limit is built on every send, and the
// table holds nothing afterwards.
func errorsNotStored(t *testing.T, bad []badRequest, over *wire.BatchRequest, limit int) {
	t.Helper()
	p := NewPool(PoolConfig{Workers: 1}, nil)
	for i, tc := range bad {
		first := tc.want
		for send := range 2 {
			_, built, err := p.Queries(&tc.req, 4096, nil)
			if err == nil || built != 1 {
				t.Fatalf("request %d send %d: built %d, error %v; want a fresh error", i, send, built, err)
			}
			if first == "" {
				first = err.Error()
			} else if err.Error() != first {
				t.Errorf("request %d send %d: error %q, want %q", i, send, err, first)
			}
		}
	}
	for send := range 2 {
		got, built, err := p.Queries(over, limit, nil)
		if err != nil || built != 1 || len(got.Queries) != limit+1 {
			t.Fatalf("over the limit of %d, send %d: built %d, error %v", limit, send, built, err)
		}
	}
	if n := len(p.table.entries); n != 0 {
		t.Errorf("table holds %d entries after failing requests, want 0", n)
	}
}

// TestProgramErrorsNotStored: a program-mode request that fails reports
// the same error on every send and leaves nothing behind; so does one
// whose queries are over the caller's limit, which the caller refuses.
func TestProgramErrorsNotStored(t *testing.T) {
	walk := walkRequest(t)
	two := *walk
	two.Program += "\nint other(int n) { return n; }\n"
	two.Fn = ""
	unknown := *walk
	unknown.Fn = "nosuch"
	badLine := *walk
	badLine.Queries = []string{"between A"}
	errorsNotStored(t, []badRequest{
		{wire.BatchRequest{Program: "int f( {", Queries: []string{"loop U"}}, ""},
		{unknown, ""},
		{two, ""},
		{badLine, ""},
	}, walk, 21)
}

// TestRawQueriesErrorsNotStored: a raw request with a bad path, relation
// or axiom set reports the error a fresh build reports, on every send,
// and leaves nothing behind; so does one over the caller's limit.
func TestRawQueriesErrorsNotStored(t *testing.T) {
	raw := rawRequest(t)
	badPath := *raw
	badPath.Raw = []wire.RawQuery{raw.Raw[0], {SHandle: "h", SPath: "((", THandle: "h", TPath: "L"}}
	badRelation := *raw
	badRelation.Raw = []wire.RawQuery{{SHandle: "h", THandle: "h", Relation: "sometimes"}}
	badSet := *raw
	badSet.AxiomSet = "forall nonsense"
	ax := freshProgram(t, raw).Axioms
	_, pathErr := BuildRawQueries(ax, badPath.Raw)
	_, relationErr := BuildRawQueries(ax, badRelation.Raw)
	_, setErr := axiom.ParseSet(raw.AxiomSetName, badSet.AxiomSet)
	errorsNotStored(t, []badRequest{
		{badPath, pathErr.Error()},
		{badRelation, relationErr.Error()},
		{badSet, "axiom_set: " + setErr.Error()},
	}, raw, 3)
}

// TestProgramTableBounds: a request over the key cap is built on every
// send and never stored, and the table empties wholesale at its entry and
// query caps.
func TestProgramTableBounds(t *testing.T) {
	p := NewPool(PoolConfig{Workers: 1}, nil)
	longProgram := *walkRequest(t)
	longProgram.Program += strings.Repeat(" ", tableKeyCap)
	longRaw := *rawRequest(t)
	longRaw.AxiomSet += strings.Repeat(" ", tableKeyCap)
	for _, long := range []*wire.BatchRequest{&longProgram, &longRaw} {
		for send := range 2 {
			if _, built, err := p.Queries(long, 4096, nil); err != nil || built != 1 {
				t.Fatalf("a %d-byte key, send %d: built %d, error %v", len(appendKey(nil, long)), send, built, err)
			}
		}
	}
	if n := len(p.table.entries); n != 0 {
		t.Fatalf("a request over the key cap was stored")
	}

	// Distinct programs: walk.c with i trailing spaces, 22 queries each.
	req := walkRequest(t)
	src := req.Program
	for i := range tableEntryCap + 10 {
		req.Program = src + strings.Repeat(" ", i)
		if _, built, err := p.Queries(req, 4096, nil); err != nil || built != 1 {
			t.Fatalf("program %d: built %d, error %v", i, built, err)
		}
		if n := len(p.table.entries); n > tableEntryCap || n != i%tableEntryCap+1 {
			t.Fatalf("after %d programs the table holds %d entries, cap %d", i+1, n, tableEntryCap)
		}
		if p.table.queries != 22*len(p.table.entries) {
			t.Fatalf("table counts %d queries over %d entries", p.table.queries, len(p.table.entries))
		}
	}

	// Entries of 1,000 queries each, 11 KiB of lines: on a fresh table the
	// query cap, not the entry cap, empties it.
	p = NewPool(PoolConfig{Workers: 1}, nil)
	big := &wire.BatchRequest{Program: src, Fn: "walk", Queries: slicesRepeat("between A B", 1000)}
	perTable := tableQueryCap / 1000
	for i := range 2*perTable + 1 {
		big.Program = src + strings.Repeat("\n", i)
		if _, built, err := p.Queries(big, 4096, nil); err != nil || built != 1 {
			t.Fatalf("big program %d: built %d, error %v", i, built, err)
		}
		if n := len(p.table.entries); n != i%perTable+1 || p.table.queries != 1000*n {
			t.Fatalf("after %d big programs the table holds %d entries and %d queries, cap %d queries",
				i+1, n, p.table.queries, tableQueryCap)
		}
	}
}

func slicesRepeat(s string, n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = s
	}
	return out
}

// concurrentSame has 8 goroutines send reqs in turn through one table at
// once and fails unless each gets a fresh build's queries and the table
// ends with one entry per request.
func concurrentSame(t *testing.T, reqs ...*wire.BatchRequest) {
	t.Helper()
	var want []*Program
	for _, req := range reqs {
		want = append(want, freshProgram(t, req))
	}
	p := NewPool(PoolConfig{Workers: 1}, nil)
	var wg sync.WaitGroup
	for g := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 20 {
				r := (g + i) % len(reqs)
				got, _, err := p.Queries(reqs[r], 4096, nil)
				if err != nil {
					t.Error(err)
					return
				}
				sameProgram(t, fmt.Sprintf("goroutine %d round %d", g, i), got, want[r])
			}
		}()
	}
	wg.Wait()
	if n := len(p.table.entries); n != len(reqs) {
		t.Errorf("table holds %d entries, want %d", n, len(reqs))
	}
}

// TestProgramTableConcurrent: goroutines sending the same program-mode
// request at once get the same queries, equal to a fresh build.  Run
// under -race by make race-serve.
func TestProgramTableConcurrent(t *testing.T) {
	concurrentSame(t, walkRequest(t))
}

// TestRawTableConcurrent: goroutines sending the same raw requests at
// once, alongside a program-mode request sharing the table, get the same
// queries, equal to a fresh build.  Run under -race by make race-serve.
func TestRawTableConcurrent(t *testing.T) {
	concurrentSame(t, rawRequest(t), wideRequest(), walkRequest(t))
}

// span is the byte range a string's data occupies.
func span(s string) (lo, hi uintptr) {
	lo = uintptr(unsafe.Pointer(unsafe.StringData(s)))
	return lo, lo + uintptr(len(s))
}

// oneLine is section33.c as one line with no byte JSON escapes, so every
// string the wire decoder hands back is a substring of the body it copied.
func oneLine(t testing.TB) string {
	t.Helper()
	b, err := os.ReadFile("../../testdata/section33.c")
	if err != nil {
		t.Fatal(err)
	}
	var code []string
	for _, line := range strings.Split(string(b), "\n") {
		if !strings.HasPrefix(line, "//") {
			code = append(code, strings.ReplaceAll(strings.TrimSpace(line), "\t", " "))
		}
	}
	return strings.Join(code, " ")
}

// decodedBody decodes body and returns the request with the byte range
// bodyLo..bodyHi that the decoder's one copy of the body spans.
func decodedBody(t *testing.T, body string) (req *wire.BatchRequest, bodyLo, bodyHi uintptr) {
	t.Helper()
	req = new(wire.BatchRequest)
	if err := wire.DecodeRequest([]byte(body), req); err != nil {
		t.Fatal(err)
	}
	strs := append([]string{req.Program, req.AxiomSetName, req.AxiomSet}, req.Queries...)
	for _, rq := range req.Raw {
		strs = append(strs, rq.SHandle, rq.SPath, rq.SField, rq.THandle, rq.TPath, rq.TField)
	}
	bodyLo, bodyHi = ^uintptr(0), 0
	for _, s := range strs {
		if s != "" {
			lo, hi := span(s)
			bodyLo, bodyHi = min(bodyLo, lo), max(bodyHi, hi)
		}
	}
	if bodyHi-bodyLo >= uintptr(len(body)) {
		t.Fatalf("the decoded strings span %d bytes of a %d-byte body: not substrings of one copy", bodyHi-bodyLo, len(body))
	}
	return req, bodyLo, bodyHi
}

// TestTablesHoldNoBodyBytes: the strings the table keeps — its keys, a
// Program's fn, its axiom set's name, the names its queries carry and the
// query lines its rows echo —
// are copies, never substrings of a decoded request body, so no entry
// keeps a body alive.
func TestTablesHoldNoBodyBytes(t *testing.T) {
	p := NewPool(PoolConfig{Workers: 1}, nil)
	for _, body := range []string{
		fmt.Sprintf(`{"program":%q,"queries":["between S T","between S I"],"assume_invariants":true}`, oneLine(t)),
		`{"axiom_set_name":"Tree","axiom_set":"forall p, p.L <> p.R","raw":[{"s_handle":"h","s_path":"L.L","s_field":"d","t_handle":"k","t_path":"R","t_field":"e"}]}`,
	} {
		req, bodyLo, bodyHi := decodedBody(t, body)
		inBody := func(what, s string) {
			if lo, hi := span(s); len(s) > 0 && lo < bodyHi && hi > bodyLo {
				t.Errorf("%s %q shares bytes with the request body", what, s)
			}
		}
		p.table.entries = make(map[string]*Program)
		if _, _, err := p.Queries(req, 4096, nil); err != nil {
			t.Fatal(err)
		}
		for k, prog := range p.table.entries {
			inBody("key", k)
			inBody("resolved fn", prog.Fn)
			inBody("axiom set's struct name", prog.Axioms.StructName)
			for _, r := range prog.Rows {
				inBody("row's query", r.Query)
			}
			for _, q := range prog.Queries {
				for _, a := range []core.Access{q.S, q.T} {
					inBody("handle", a.Handle)
					inBody("field", a.Field)
					inBody("type", a.Type)
				}
			}
		}
	}
}

// BenchmarkProgramQueries prices building a request's queries three ways,
// for a program-mode request (walk.{c,q}) and a raw one (the wire
// golden): fresh builds with no table (a program's analysis borrowing the
// pool's warm DFA cache, as a served analysis does); warm repeats one
// request through the table; rotating sends 2 × tableEntryCap distinct
// requests (walk.c with i trailing spaces, or the raw request under set
// name i) in turn, so every request misses, copies its key and builds,
// and the table is emptied every tableEntryCap requests.
func BenchmarkProgramQueries(b *testing.B) {
	for _, mode := range []struct {
		name string
		req  *wire.BatchRequest
		vary func(req *wire.BatchRequest, i int)
	}{
		{"program", walkRequest(b), func(req *wire.BatchRequest, i int) { req.Program += strings.Repeat(" ", i) }},
		{"raw", rawRequest(b), func(req *wire.BatchRequest, i int) { req.AxiomSetName += fmt.Sprint(i) }},
	} {
		req := mode.req
		b.Run(mode.name+"/fresh", func(b *testing.B) {
			p := NewPool(PoolConfig{Workers: 1}, nil)
			b.ReportAllocs()
			for range b.N {
				if _, err := p.build(req, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(mode.name+"/warm", func(b *testing.B) {
			p := NewPool(PoolConfig{Workers: 1}, nil)
			b.ReportAllocs()
			for range b.N {
				if _, _, err := p.Queries(req, 4096, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(mode.name+"/rotating", func(b *testing.B) {
			reqs := make([]wire.BatchRequest, 2*tableEntryCap)
			for i := range reqs {
				reqs[i] = *req
				mode.vary(&reqs[i], i)
			}
			p := NewPool(PoolConfig{Workers: 1}, nil)
			b.ReportAllocs()
			for i := range b.N {
				if _, built, err := p.Queries(&reqs[i%len(reqs)], 4096, nil); err != nil || built != 1 {
					b.Fatalf("built %d (err %v), want a miss", built, err)
				}
			}
		})
	}
}

// TestTableQueryBudget: the per-query bytes the table's budget states
// cover a query record and a row header, and the rendered texts of the
// requests it names.
func TestTableQueryBudget(t *testing.T) {
	headers := unsafe.Sizeof(core.Query{}) + unsafe.Sizeof(wire.QueryResult{})
	if tableQueryBytes < headers {
		t.Fatalf("tableQueryBytes = %d, below a query record and a row header, %d B", tableQueryBytes, headers)
	}
	for _, req := range []*wire.BatchRequest{walkRequest(t), rawRequest(t)} {
		prog := freshProgram(t, req)
		text := 0
		for _, r := range prog.Rows {
			text += len(r.S) + len(r.T)
			if len(req.Raw) > 0 {
				text += len(r.Query)
			}
		}
		if per := uintptr(text / len(prog.Rows)); headers+per > tableQueryBytes {
			t.Errorf("%s: %d B of rendered text a row; the budget leaves %d", prog.Axioms.StructName, per, tableQueryBytes-headers)
		}
	}
}
