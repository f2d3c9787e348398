package exec

import (
	"fmt"
	"os"
	"strings"
	"sync"
	"testing"
	"unsafe"

	"repro/internal/analysis"
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

// freshProgram builds the request's queries without the table, the way the
// server did before it had one.
func freshProgram(t testing.TB, req *wire.BatchRequest) *Program {
	t.Helper()
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
	return &Program{Fn: fn, Axioms: res.Axioms, Queries: queries, Origins: origins}
}

// renderQuery is everything a query asks, as text.
func renderQuery(q core.Query) string {
	return fmt.Sprintf("%s %q | %s %q | %v | %s | %s | %s", q.S, q.S.Type, q.T, q.T.Type, q.Relation,
		q.SGuards, q.TGuards, q.Axioms.Key())
}

// sameProgram fails unless got asks what want asks, in the same order and
// from the same lines.
func sameProgram(t testing.TB, what string, got, want *Program) {
	t.Helper()
	if got.Fn != want.Fn || got.Axioms.Key() != want.Axioms.Key() || len(got.Queries) != len(want.Queries) {
		t.Fatalf("%s: fn %s, axioms %q, %d queries; want %s, %q, %d", what,
			got.Fn, got.Axioms.Key(), len(got.Queries), want.Fn, want.Axioms.Key(), len(want.Queries))
	}
	for i := range got.Queries {
		if g, w := renderQuery(got.Queries[i]), renderQuery(want.Queries[i]); g != w || got.Origins[i] != want.Origins[i] {
			t.Errorf("%s: query %d = %s (line %d), want %s (line %d)", what, i, g, got.Origins[i], w, want.Origins[i])
		}
	}
}

// TestProgramQueriesMatchBuild: the table builds what parse, analysis and
// expansion build, cold and warm; the warm request analyses nothing and
// gets the stored Program back.
func TestProgramQueriesMatchBuild(t *testing.T) {
	req := walkRequest(t)
	want := freshProgram(t, req)
	p := NewPool(PoolConfig{Workers: 1}, nil)
	var first *Program
	for pass, wantAnalyzed := range []int{1, 0} {
		got, analyzed, err := p.ProgramQueries(req, 4096, nil)
		if err != nil {
			t.Fatal(err)
		}
		sameProgram(t, fmt.Sprintf("pass %d", pass), got, want)
		if analyzed != wantAnalyzed {
			t.Errorf("pass %d analyzed %d, want %d", pass, analyzed, wantAnalyzed)
		}
		if pass == 0 {
			first = got
		} else if got != first {
			t.Error("a warm request got a new Program, want the stored one")
		}
	}
}

// TestProgramKeysDistinct: fn as sent, assume_invariants and the query
// lines, split where the request splits them, are each part of the key.
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
	for i, req := range []wire.BatchRequest{base, noFn, assume, joined, long} {
		if n, want := progKeyLen(&req), len(appendProgKey(nil, &req)); n != want {
			t.Errorf("request %d: progKeyLen %d, key is %d bytes", i, n, want)
		}
	}

	p := NewPool(PoolConfig{Workers: 1}, nil)
	for i, req := range []wire.BatchRequest{base, noFn, assume} {
		got, analyzed, err := p.ProgramQueries(&req, 4096, nil)
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		if analyzed != 1 {
			t.Errorf("request %d hit another request's entry", i)
		}
		sameProgram(t, fmt.Sprintf("request %d", i), got, freshProgram(t, &req))
	}
	if n := len(p.prog.entries); n != 3 {
		t.Errorf("table holds %d entries, want 3", n)
	}
	// One line holding two queries is a bad line, not the two lines.
	for range 2 {
		if _, analyzed, err := p.ProgramQueries(&joined, 4096, nil); err == nil || analyzed != 1 {
			t.Errorf("a line with a newline in it: analyzed %d, error %v; want a fresh error", analyzed, err)
		}
	}
}

// TestProgramErrorsNotStored: a request that fails reports the same error
// on every send and leaves nothing behind; so does one whose expansion is
// over the caller's limit, which the caller refuses.
func TestProgramErrorsNotStored(t *testing.T) {
	walk := walkRequest(t)
	two := *walk
	two.Program += "\nint other(int n) { return n; }\n"
	two.Fn = ""
	unknown := *walk
	unknown.Fn = "nosuch"
	badLine := *walk
	badLine.Queries = []string{"between A"}
	bad := []wire.BatchRequest{
		{Program: "int f( {", Queries: []string{"loop U"}},
		unknown,
		two,
		badLine,
	}
	p := NewPool(PoolConfig{Workers: 1}, nil)
	for i, req := range bad {
		var first string
		for send := range 2 {
			_, analyzed, err := p.ProgramQueries(&req, 4096, nil)
			if err == nil || analyzed != 1 {
				t.Fatalf("request %d send %d: analyzed %d, error %v; want a fresh error", i, send, analyzed, err)
			}
			if send == 0 {
				first = err.Error()
			} else if err.Error() != first {
				t.Errorf("request %d: error %q, then %q", i, first, err)
			}
		}
	}
	for send := range 2 {
		got, analyzed, err := p.ProgramQueries(walk, 21, nil)
		if err != nil || analyzed != 1 || len(got.Queries) != 22 {
			t.Fatalf("over the limit, send %d: analyzed %d, error %v", send, analyzed, err)
		}
	}
	if n := len(p.prog.entries); n != 0 {
		t.Errorf("table holds %d entries after failing requests, want 0", n)
	}
}

// TestProgramTableBounds: a request over the text cap is analysed on every
// send and never stored, and the table empties wholesale at its entry and
// query caps.
func TestProgramTableBounds(t *testing.T) {
	p := NewPool(PoolConfig{Workers: 1}, nil)
	long := *walkRequest(t)
	long.Program += strings.Repeat(" ", progTextCap)
	for send := range 2 {
		if _, analyzed, err := p.ProgramQueries(&long, 4096, nil); err != nil || analyzed != 1 {
			t.Fatalf("a %d-byte program, send %d: analyzed %d, error %v", len(long.Program), send, analyzed, err)
		}
	}
	if n := len(p.prog.entries); n != 0 {
		t.Fatalf("a request over the text cap was stored")
	}

	// Distinct programs: walk.c with i trailing spaces, 22 queries each.
	req := walkRequest(t)
	src := req.Program
	for i := range progEntryCap + 10 {
		req.Program = src + strings.Repeat(" ", i)
		if _, analyzed, err := p.ProgramQueries(req, 4096, nil); err != nil || analyzed != 1 {
			t.Fatalf("program %d: analyzed %d, error %v", i, analyzed, err)
		}
		if n := len(p.prog.entries); n > progEntryCap || n != i%progEntryCap+1 {
			t.Fatalf("after %d programs the table holds %d entries, cap %d", i+1, n, progEntryCap)
		}
		if p.prog.queries != 22*len(p.prog.entries) {
			t.Fatalf("table counts %d queries over %d entries", p.prog.queries, len(p.prog.entries))
		}
	}

	// Entries of 1,000 queries each, 11 KiB of lines: on a fresh table the
	// query cap, not the entry cap, empties it.
	p = NewPool(PoolConfig{Workers: 1}, nil)
	big := &wire.BatchRequest{Program: src, Fn: "walk", Queries: slicesRepeat("between A B", 1000)}
	perTable := progQueryCap / 1000
	for i := range 2*perTable + 1 {
		big.Program = src + strings.Repeat("\n", i)
		if _, analyzed, err := p.ProgramQueries(big, 4096, nil); err != nil || analyzed != 1 {
			t.Fatalf("big program %d: analyzed %d, error %v", i, analyzed, err)
		}
		if n := len(p.prog.entries); n != i%perTable+1 || p.prog.queries != 1000*n {
			t.Fatalf("after %d big programs the table holds %d entries and %d queries, cap %d queries",
				i+1, n, p.prog.queries, progQueryCap)
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

// TestProgramTableConcurrent: goroutines sending the same request at once
// get the same queries, equal to a fresh build.  Run under -race by
// make race-serve.
func TestProgramTableConcurrent(t *testing.T) {
	req := walkRequest(t)
	want := freshProgram(t, req)
	p := NewPool(PoolConfig{Workers: 1}, nil)
	var wg sync.WaitGroup
	for g := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 10 {
				got, _, err := p.ProgramQueries(req, 4096, nil)
				if err != nil {
					t.Error(err)
					return
				}
				sameProgram(t, fmt.Sprintf("goroutine %d round %d", g, i), got, want)
			}
		}()
	}
	wg.Wait()
	if n := len(p.prog.entries); n != 1 {
		t.Errorf("table holds %d entries, want 1", n)
	}
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

// TestTablesHoldNoBodyBytes: the strings the two tables keep — their keys,
// a Program's fn and the names its queries carry, a raw set's name — are
// copies, never substrings of the decoded request body, so no entry keeps
// a body alive.
func TestTablesHoldNoBodyBytes(t *testing.T) {
	body := fmt.Sprintf(`{"program":%q,"queries":["between S T","between S I"],"assume_invariants":true}`, oneLine(t))
	var req wire.BatchRequest
	if err := wire.DecodeRequest([]byte(body), &req); err != nil {
		t.Fatal(err)
	}
	// The request's strings all lie in the decoder's one copy of the body;
	// bodyLo..bodyHi covers them.
	bodyLo, bodyHi := span(req.Program)
	for _, s := range req.Queries {
		lo, hi := span(s)
		bodyLo, bodyHi = min(bodyLo, lo), max(bodyHi, hi)
	}
	if bodyHi-bodyLo >= uintptr(len(body)) {
		t.Fatalf("the decoded strings span %d bytes of a %d-byte body: not substrings of one copy", bodyHi-bodyLo, len(body))
	}
	inBody := func(what, s string) {
		if lo, hi := span(s); len(s) > 0 && lo < bodyHi && hi > bodyLo {
			t.Errorf("%s %q shares bytes with the request body", what, s)
		}
	}

	p := NewPool(PoolConfig{Workers: 1}, nil)
	if _, _, err := p.ProgramQueries(&req, 4096, nil); err != nil {
		t.Fatal(err)
	}
	for k, prog := range p.prog.entries {
		inBody("program key", k)
		inBody("resolved fn", prog.Fn)
		for _, q := range prog.Queries {
			for _, a := range []core.Access{q.S, q.T} {
				inBody("handle", a.Handle)
				inBody("field", a.Field)
				inBody("type", a.Type)
			}
		}
	}

	raw := `{"axiom_set_name":"Tree","axiom_set":"forall p, p.L <> p.R","raw":[{"s_handle":"h","s_path":"L.L","s_field":"d","t_handle":"h","t_path":"R","t_field":"d"}]}`
	var rreq wire.BatchRequest
	if err := wire.DecodeRequest([]byte(raw), &rreq); err != nil {
		t.Fatal(err)
	}
	bodyLo, bodyHi = span(rreq.AxiomSetName)
	for _, s := range []string{rreq.AxiomSet, rreq.Raw[0].SPath, rreq.Raw[0].TPath} {
		lo, hi := span(s)
		bodyLo, bodyHi = min(bodyLo, lo), max(bodyHi, hi)
	}
	if bodyHi-bodyLo >= uintptr(len(raw)) {
		t.Fatalf("the decoded raw strings span %d bytes of a %d-byte body", bodyHi-bodyLo, len(raw))
	}
	if _, _, _, err := p.RawQueries(rreq.AxiomSetName, rreq.AxiomSet, rreq.Raw); err != nil {
		t.Fatal(err)
	}
	for k, rs := range p.raw.sets {
		inBody("axiom-set name", k.name)
		inBody("axiom-set text", k.text)
		inBody("set's struct name", rs.ax.StructName)
		for path := range rs.paths {
			inBody("path", path)
		}
	}
}

// BenchmarkProgramQueries prices a program-mode request's front end three
// ways over walk.{c,q}: fresh runs parse, analysis and expansion with no
// table (borrowing the pool's warm DFA cache, as a served analysis does);
// warm repeats one request through the table; rotating sends 2 ×
// progEntryCap distinct programs (walk.c with i trailing spaces) in turn,
// so every request misses, copies its key and analyses, and the table is
// emptied every progEntryCap requests.
func BenchmarkProgramQueries(b *testing.B) {
	req := walkRequest(b)
	b.Run("fresh", func(b *testing.B) {
		p := NewPool(PoolConfig{Workers: 1}, nil)
		b.ReportAllocs()
		for range b.N {
			if _, err := p.analyze(req.Program, req, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("warm", func(b *testing.B) {
		p := NewPool(PoolConfig{Workers: 1}, nil)
		b.ReportAllocs()
		for range b.N {
			if _, _, err := p.ProgramQueries(req, 4096, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("rotating", func(b *testing.B) {
		reqs := make([]wire.BatchRequest, 2*progEntryCap)
		for i := range reqs {
			reqs[i] = *req
			reqs[i].Program += strings.Repeat(" ", i)
		}
		p := NewPool(PoolConfig{Workers: 1}, nil)
		b.ReportAllocs()
		for i := range b.N {
			if _, analyzed, err := p.ProgramQueries(&reqs[i%len(reqs)], 4096, nil); err != nil || analyzed != 1 {
				b.Fatalf("analyzed %d (err %v), want a miss", analyzed, err)
			}
		}
	})
}
