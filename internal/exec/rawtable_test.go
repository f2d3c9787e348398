package exec

import (
	"fmt"
	"os"
	"strings"
	"sync"
	"testing"

	"repro/internal/axiom"
	"repro/internal/core"
	"repro/internal/wire"
)

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

// fresh builds the request's queries without the table, the way perfbench's
// reference does.
func fresh(t testing.TB, req *wire.BatchRequest) (*axiom.Set, []core.Query) {
	t.Helper()
	ax, err := axiom.ParseSet(req.AxiomSetName, req.AxiomSet)
	if err != nil {
		t.Fatal(err)
	}
	queries, err := BuildRawQueries(ax, req.Raw)
	if err != nil {
		t.Fatal(err)
	}
	return ax, queries
}

// sameQueries fails unless got and want ask the same questions under equal
// axiom sets.
func sameQueries(t testing.TB, what string, gotAx *axiom.Set, got []core.Query, wantAx *axiom.Set, want []core.Query) {
	t.Helper()
	if gotAx.StructName != wantAx.StructName || gotAx.Key() != wantAx.Key() {
		t.Fatalf("%s: axiom set %s %q, want %s %q", what, gotAx.StructName, gotAx.Key(), wantAx.StructName, wantAx.Key())
	}
	if len(got) != len(want) {
		t.Fatalf("%s: %d queries, want %d", what, len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.Axioms != gotAx || g.S.String() != w.S.String() || g.T.String() != w.T.String() ||
			g.S.IsWrite != w.S.IsWrite || g.T.IsWrite != w.T.IsWrite || g.Relation != w.Relation {
			t.Errorf("%s: query %d = %v / %v (%v), want %v / %v (%v)", what, i, g.S, g.T, g.Relation, w.S, w.T, w.Relation)
		}
	}
}

// TestRawQueriesMatchBuild: the table builds exactly what ParseSet plus
// BuildRawQueries build, cold and warm, and a warm request parses nothing.
func TestRawQueriesMatchBuild(t *testing.T) {
	req := rawRequest(t)
	wantAx, want := fresh(t, req)
	p := NewPool(PoolConfig{Workers: 1}, nil)

	distinct := map[string]bool{}
	for _, rq := range req.Raw {
		distinct[rq.SPath], distinct[rq.TPath] = true, true
	}
	for pass, wantParsed := range []int{1 + len(distinct), 0} {
		ax, got, parsed, err := p.RawQueries(req.AxiomSetName, req.AxiomSet, req.Raw)
		if err != nil {
			t.Fatal(err)
		}
		sameQueries(t, fmt.Sprintf("pass %d", pass), ax, got, wantAx, want)
		if parsed != wantParsed {
			t.Errorf("pass %d parsed %d texts, want %d", pass, parsed, wantParsed)
		}
	}

	// A path's parse depends on its set's alphabet: "LN" is L·N over the
	// tree's fields and one field over a set that declares LN.
	ln := &wire.BatchRequest{AxiomSetName: "Wide", AxiomSet: "forall p, p.LN+ <> p.eps",
		Raw: []wire.RawQuery{{SHandle: "h", SPath: "LN", THandle: "h", TPath: "LN.LN"}}}
	wantAx, want = fresh(t, ln)
	ax, got, _, err := p.RawQueries(ln.AxiomSetName, ln.AxiomSet, ln.Raw)
	if err != nil {
		t.Fatal(err)
	}
	sameQueries(t, "second alphabet", ax, got, wantAx, want)
	if got[0].S.Path.String() != "LN" {
		t.Errorf("LN over the Wide set parsed as %s, want the one field LN", got[0].S.Path)
	}
}

// TestRawQueriesErrorsNotStored: a bad axiom text or path reports the error
// parsing it afresh reports, on every request, and leaves nothing behind.
func TestRawQueriesErrorsNotStored(t *testing.T) {
	req := rawRequest(t)
	p := NewPool(PoolConfig{Workers: 1}, nil)
	if _, _, _, err := p.RawQueries(req.AxiomSetName, req.AxiomSet, req.Raw); err != nil {
		t.Fatal(err)
	}
	ax, _ := fresh(t, req)
	badPath := append([]wire.RawQuery{req.Raw[0]}, wire.RawQuery{SHandle: "h", SPath: "((", THandle: "h", TPath: "L"})
	_, wantPathErr := BuildRawQueries(ax, badPath)
	_, wantSetErr := axiom.ParseSet("bad", "forall nonsense")
	for range 2 {
		if _, _, _, err := p.RawQueries(req.AxiomSetName, req.AxiomSet, badPath); err == nil || err.Error() != wantPathErr.Error() {
			t.Errorf("bad path: error %v, want %v", err, wantPathErr)
		}
		if _, _, _, err := p.RawQueries("bad", "forall nonsense", req.Raw); err == nil || err.Error() != "axiom_set: "+wantSetErr.Error() {
			t.Errorf("bad axiom set: error %v, want axiom_set: %v", err, wantSetErr)
		}
	}
	if n := len(p.raw.sets); n != 1 {
		t.Errorf("table holds %d sets after a bad one, want the 1 good one", n)
	}
	for _, rs := range p.raw.sets {
		if _, ok := rs.paths["(("]; ok {
			t.Error("a path that failed to parse was stored")
		}
	}
}

// TestRawTableBounds: more distinct texts than the caps allow leave the
// table within its bounds, and a text over the length cap is never stored.
func TestRawTableBounds(t *testing.T) {
	p := NewPool(PoolConfig{Workers: 1}, nil)
	raw := func(path string) []wire.RawQuery {
		return []wire.RawQuery{{SHandle: "h", SPath: path, THandle: "h", TPath: path}}
	}
	for i := range rawSetCap + 10 {
		name := fmt.Sprintf("S%d", i)
		if _, _, _, err := p.RawQueries(name, "forall p, p.n+ <> p.eps", raw("n")); err != nil {
			t.Fatal(err)
		}
		if n := len(p.raw.sets); n > rawSetCap {
			t.Fatalf("table holds %d sets, cap %d", n, rawSetCap)
		}
	}
	// Distinct short paths: i in binary, a for 0 and b for 1.
	const ab = "forall p, p.a <> p.b"
	for i := range rawPathCap + 10 {
		path := strings.Join(strings.Split(strings.NewReplacer("0", "a", "1", "b").Replace(fmt.Sprintf("1%b", i)), ""), ".")
		if _, _, parsed, err := p.RawQueries("S", ab, raw(path)); err != nil || parsed == 0 {
			t.Fatalf("path %s: parsed %d texts (err %v), want a new path parsed", path, parsed, err)
		}
		if n := len(p.raw.sets[rawKey{"S", ab}].paths); n > rawPathCap {
			t.Fatalf("set holds %d paths, cap %d", n, rawPathCap)
		}
	}

	long := strings.Repeat("n.", rawTextCap/2) + "n"
	for i := range 2 {
		_, _, parsed, err := p.RawQueries("S", "forall p, p.n+ <> p.eps", raw(long))
		if err != nil {
			t.Fatal(err)
		}
		// The first request parses the set too; each parses both paths.
		if parsed != 3-i {
			t.Errorf("request %d: a %d-byte path pair parsed %d texts, want %d", i, len(long), parsed, 3-i)
		}
	}
	longSet := "forall p, p.n+ <> p.eps; " + strings.Repeat("forall p, p.n <> p.eps; ", rawTextCap/20)
	for range 2 {
		if _, _, parsed, err := p.RawQueries("L", longSet, raw("n")); err != nil || parsed != 2 {
			t.Errorf("a %d-byte axiom set: parsed %d texts (err %v), want 2 per request", len(longSet), parsed, err)
		}
	}
	if _, ok := p.raw.sets[rawKey{"L", longSet}]; ok {
		t.Error("an axiom set over the length cap was stored")
	}
}

// TestRawTableConcurrent: goroutines resolving the same texts at once get
// the same queries, equal to a fresh build.  Run under -race by
// make race-serve.
func TestRawTableConcurrent(t *testing.T) {
	req := rawRequest(t)
	wantAx, want := fresh(t, req)
	p := NewPool(PoolConfig{Workers: 1}, nil)
	var wg sync.WaitGroup
	for g := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 20 {
				ax, got, _, err := p.RawQueries(req.AxiomSetName, req.AxiomSet, req.Raw)
				if err != nil {
					t.Error(err)
					return
				}
				sameQueries(t, fmt.Sprintf("goroutine %d round %d", g, i), ax, got, wantAx, want)
			}
		}()
	}
	wg.Wait()
}

// BenchmarkRawQueries prices a raw request's text resolution three ways:
// fresh is ParseSet plus BuildRawQueries (no table); warm repeats one
// request through the table; rotating sends the request under twice as
// many set names as the table holds, so every request misses its set and
// every path, and the set map is emptied every rawSetCap requests.
func BenchmarkRawQueries(b *testing.B) {
	req := rawRequest(b)
	b.Run("fresh", func(b *testing.B) {
		b.ReportAllocs()
		for range b.N {
			fresh(b, req)
		}
	})
	b.Run("warm", func(b *testing.B) {
		p := NewPool(PoolConfig{Workers: 1}, nil)
		b.ReportAllocs()
		for range b.N {
			if _, _, _, err := p.RawQueries(req.AxiomSetName, req.AxiomSet, req.Raw); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("rotating", func(b *testing.B) {
		names := make([]string, 2*rawSetCap)
		for i := range names {
			names[i] = fmt.Sprintf("%s%d", req.AxiomSetName, i)
		}
		p := NewPool(PoolConfig{Workers: 1}, nil)
		b.ReportAllocs()
		for i := range b.N {
			if _, _, parsed, err := p.RawQueries(names[i%len(names)], req.AxiomSet, req.Raw); err != nil || parsed == 0 {
				b.Fatalf("parsed %d texts (err %v), want a miss", parsed, err)
			}
		}
	})
}
