package automata

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/pathexpr"
)

// This file freezes the pre-refactor DFA backend — a Thompson NFA, subset
// construction over ε-closures, map-based transition tables, string-
// signature minimization, string-keyed product states — as an in-test
// reference implementation.  The differential tests prove the flat-table
// backend compiles byte-identical tables to the Thompson subset
// construction and reaches identical verdicts; the benchmark report
// (BENCH_dfa.json, via `make bench-dfa`) quantifies what the rewrite bought
// and asserts the table backend is no slower to compile or to decide.

// nfa is a Thompson-construction NFA with ε-transitions, the automaton the
// frozen backend compiled through.  States are dense integers.
type nfa struct {
	alphabet *Alphabet
	// eps[s] lists ε-successors of state s.
	eps [][]int
	// A Thompson state has at most one labelled edge: sym[s] is its symbol
	// (-1 when s has none) and to[s] its target.
	sym, to []int32
}

func (n *nfa) newState() int {
	n.eps = append(n.eps, nil)
	n.sym = append(n.sym, -1)
	n.to = append(n.to, -1)
	return len(n.eps) - 1
}

func (n *nfa) addEps(from, to int) {
	n.eps[from] = append(n.eps[from], to)
}

// build compiles e into a Thompson NFA fragment and returns its (start,
// accept) states.  Symbols absent from the alphabet get no labelled edge,
// so they denote the empty language.
func (n *nfa) build(e pathexpr.Expr) (start, accept int) {
	start = n.newState()
	accept = n.newState()
	switch v := e.(type) {
	case nil, pathexpr.Epsilon:
		n.addEps(start, accept)
	case pathexpr.Empty:
		// no transitions: accept unreachable
	case pathexpr.Field:
		sym := n.alphabet.Index(v.Name)
		if sym >= 0 {
			n.sym[start], n.to[start] = int32(sym), int32(accept)
		}
	case pathexpr.Concat:
		cur := start
		for _, p := range v.Parts {
			s, a := n.build(p)
			n.addEps(cur, s)
			cur = a
		}
		n.addEps(cur, accept)
	case pathexpr.Alt:
		for _, p := range v.Alts {
			s, a := n.build(p)
			n.addEps(start, s)
			n.addEps(a, accept)
		}
	case pathexpr.Star:
		s, a := n.build(v.Inner)
		n.addEps(start, s)
		n.addEps(a, s)
		n.addEps(start, accept)
		n.addEps(a, accept)
	case pathexpr.Plus:
		s, a := n.build(v.Inner)
		n.addEps(start, s)
		n.addEps(a, s)
		n.addEps(a, accept)
	default:
		panic(fmt.Sprintf("automata: unknown expression type %T", e))
	}
	return start, accept
}

// legacyDFA is the old representation: one map per state.
type legacyDFA struct {
	alphabet *Alphabet
	trans    []map[int]int
	accept   []bool
}

// legacyEpsClosure is the recursive ε-closure the old subset construction
// used, returning a sorted state set.
func legacyEpsClosure(n *nfa, states []int) []int {
	seen := map[int]bool{}
	var walk func(s int)
	walk = func(s int) {
		if seen[s] {
			return
		}
		seen[s] = true
		for _, t := range n.eps[s] {
			walk(t)
		}
	}
	for _, s := range states {
		walk(s)
	}
	out := make([]int, 0, len(seen))
	for s := range seen {
		out = append(out, s)
	}
	sort.Ints(out)
	return out
}

// legacySig renders a state set as the comma-joined string the old code
// interned subset-construction states by.
func legacySig(set []int) string {
	var b strings.Builder
	for i, s := range set {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%d", s)
	}
	return b.String()
}

// legacyCompile is subset construction over string signatures followed by
// string-signature Moore minimization — the frozen old pipeline.
func legacyCompile(e pathexpr.Expr, a *Alphabet) *legacyDFA {
	return legacyMinimize(legacySubset(e, a))
}

// legacySubset is the Thompson construction followed by subset construction
// with ε-closures, interning state sets by string signature.
func legacySubset(e pathexpr.Expr, a *Alphabet) *legacyDFA {
	n := &nfa{alphabet: a}
	start, accept := n.build(e)

	d := &legacyDFA{alphabet: a}
	index := map[string]int{}
	var sets [][]int
	intern := func(set []int) int {
		sig := legacySig(set)
		if i, ok := index[sig]; ok {
			return i
		}
		i := len(sets)
		index[sig] = i
		sets = append(sets, set)
		d.trans = append(d.trans, make(map[int]int, a.Size()))
		acc := false
		for _, s := range set {
			if s == accept {
				acc = true
			}
		}
		d.accept = append(d.accept, acc)
		return i
	}
	intern(legacyEpsClosure(n, []int{start}))
	for i := 0; i < len(sets); i++ {
		for sym := 0; sym < a.Size(); sym++ {
			var next []int
			for _, s := range sets[i] {
				if int(n.sym[s]) == sym {
					next = append(next, int(n.to[s]))
				}
			}
			d.trans[i][sym] = intern(legacyEpsClosure(n, next))
		}
	}
	return d
}

// legacyMinimize is Moore refinement with string signatures in a map —
// per-round signature rendering was the old backend's dominant cost.
func legacyMinimize(d *legacyDFA) *legacyDFA {
	n := len(d.accept)
	if n <= 1 {
		return d
	}
	k := d.alphabet.Size()
	part := make([]int, n)
	for s := range part {
		if d.accept[s] {
			part[s] = 1
		}
	}
	for {
		index := map[string]int{}
		next := make([]int, n)
		for s := 0; s < n; s++ {
			var b strings.Builder
			fmt.Fprintf(&b, "%d", part[s])
			for sym := 0; sym < k; sym++ {
				fmt.Fprintf(&b, ",%d", part[d.trans[s][sym]])
			}
			sig := b.String()
			id, ok := index[sig]
			if !ok {
				id = len(index)
				index[sig] = id
			}
			next[s] = id
		}
		same := true
		for s := range part {
			if part[s] != next[s] {
				same = false
			}
		}
		part = next
		if same {
			break
		}
	}
	blocks := 0
	for _, p := range part {
		if p+1 > blocks {
			blocks = p + 1
		}
	}
	out := &legacyDFA{
		alphabet: d.alphabet,
		trans:    make([]map[int]int, blocks),
		accept:   make([]bool, blocks),
	}
	for s := 0; s < n; s++ {
		b := part[s]
		if out.trans[b] == nil {
			out.trans[b] = make(map[int]int, k)
			for sym := 0; sym < k; sym++ {
				out.trans[b][sym] = part[d.trans[s][sym]]
			}
			out.accept[b] = d.accept[s]
		}
	}
	// Re-root so block of old state 0 is state 0, as the old code did.
	if part[0] != 0 {
		swap := part[0]
		perm := make([]int, blocks)
		for i := range perm {
			perm[i] = i
		}
		perm[0], perm[swap] = swap, 0
		re := &legacyDFA{alphabet: d.alphabet, trans: make([]map[int]int, blocks), accept: make([]bool, blocks)}
		for b := 0; b < blocks; b++ {
			nb := perm[b]
			re.trans[nb] = make(map[int]int, k)
			for sym, t := range out.trans[b] {
				re.trans[nb][sym] = perm[t]
			}
			re.accept[nb] = out.accept[b]
		}
		out = re
	}
	return out
}

// legacyProduct builds the pair automaton over string pair keys.
func legacyProduct(x, y *legacyDFA, acceptPair func(a, b bool) bool) *legacyDFA {
	k := x.alphabet.Size()
	out := &legacyDFA{alphabet: x.alphabet}
	index := map[string]int{}
	type pair struct{ a, b int }
	var pairs []pair
	intern := func(a, b int) int {
		key := fmt.Sprintf("%d|%d", a, b)
		if i, ok := index[key]; ok {
			return i
		}
		i := len(pairs)
		index[key] = i
		pairs = append(pairs, pair{a, b})
		out.trans = append(out.trans, make(map[int]int, k))
		out.accept = append(out.accept, acceptPair(x.accept[a], y.accept[b]))
		return i
	}
	intern(0, 0)
	for i := 0; i < len(pairs); i++ {
		p := pairs[i]
		for sym := 0; sym < k; sym++ {
			out.trans[i][sym] = intern(x.trans[p.a][sym], y.trans[p.b][sym])
		}
	}
	return out
}

func (d *legacyDFA) isEmpty() bool {
	seen := make([]bool, len(d.accept))
	stack := []int{0}
	seen[0] = true
	for len(stack) > 0 {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if d.accept[s] {
			return false
		}
		for _, t := range d.trans[s] {
			if !seen[t] {
				seen[t] = true
				stack = append(stack, t)
			}
		}
	}
	return true
}

func legacyIncludes(x, y *legacyDFA) bool {
	return legacyProduct(x, y, func(a, b bool) bool { return a && !b }).isEmpty()
}

func legacyDisjoint(x, y *legacyDFA) bool {
	return legacyProduct(x, y, func(a, b bool) bool { return a && b }).isEmpty()
}

func legacyEquivalent(x, y *legacyDFA) bool {
	return legacyProduct(x, y, func(a, b bool) bool { return a != b }).isEmpty()
}

// benchDFASuite is the expression workload both backends run: the shared-
// cache test set plus heavier subset-construction and product shapes.
func benchDFASuite() ([]pathexpr.Expr, *Alphabet) {
	srcs := []string{
		"L", "R", "N", "L.R", "(L|R)", "(L|R)+", "N*", "L.(L|R)*",
		"(L|R|N)+", "ε", "(L|R)*.N", "(L|R)*.L.(L|R).(L|R)",
		"(L.L.L)*", "(L.L.L.L.L)*", "(L|R)*.N.N*", "R.(L|N)+.R",
	}
	exprs := make([]pathexpr.Expr, len(srcs))
	for i, s := range srcs {
		exprs[i] = pathexpr.MustParse(s)
	}
	return exprs, NewAlphabet("L", "R", "N")
}

// TestTableBackendMatchesLegacy: every verdict of the flat-table backend
// must equal the frozen map/string backend over the full pairwise suite.
// This is the equal-verdicts precondition the benchmark report cites.
func TestTableBackendMatchesLegacy(t *testing.T) {
	exprs, a := benchDFASuite()
	table := make([]*DFA, len(exprs))
	legacy := make([]*legacyDFA, len(exprs))
	for i, e := range exprs {
		table[i] = MustCompile(e, a)
		legacy[i] = legacyCompile(e, a)
	}
	for i, x := range exprs {
		for j, y := range exprs {
			if got, want := table[i].Includes(table[j]), legacyIncludes(legacy[i], legacy[j]); got != want {
				t.Errorf("Includes(%v, %v): table %v, legacy %v", x, y, got, want)
			}
			if got, want := table[i].Intersect(table[j]).IsEmpty(), legacyDisjoint(legacy[i], legacy[j]); got != want {
				t.Errorf("Disjoint(%v, %v): table %v, legacy %v", x, y, got, want)
			}
			if got, want := table[i].Equivalent(table[j]), legacyEquivalent(legacy[i], legacy[j]); got != want {
				t.Errorf("Equivalent(%v, %v): table %v, legacy %v", x, y, got, want)
			}
		}
	}
}

// flatten renders a legacy DFA as a dense table, in the same layout as
// DFA.trans and DFA.accept.
func (d *legacyDFA) flatten() ([]int32, []bool) {
	k := d.alphabet.Size()
	trans := make([]int32, len(d.accept)*k)
	for s, row := range d.trans {
		for c := 0; c < k; c++ {
			trans[s*k+c] = int32(row[c])
		}
	}
	return trans, d.accept
}

// TestCompileMatchesThompson: the position construction compiles every
// expression to exactly the tables the frozen Thompson subset construction
// builds — same states, same numbering, same bytes.  A Thompson set and
// its position set determine each other, so the subset construction visits
// the same states in the same order, and never more.
func TestCompileMatchesThompson(t *testing.T) {
	suite, lrn := benchDFASuite()
	type input struct {
		e pathexpr.Expr
		a *Alphabet
	}
	var inputs []input
	for _, e := range suite {
		inputs = append(inputs, input{e, lrn})
	}
	// ∅, ε, and a field outside the alphabet, alone and inside larger
	// shapes.  The parser has no ∅, and the constructors fold it away, so
	// those shapes are built directly.
	empty, l, r := pathexpr.Empty{}, pathexpr.F("L"), pathexpr.F("R")
	for _, e := range []pathexpr.Expr{
		nil, empty,
		pathexpr.Concat{Parts: []pathexpr.Expr{l, empty}},
		pathexpr.Alt{Alts: []pathexpr.Expr{empty, r}},
		pathexpr.Star{Inner: empty},
		pathexpr.Plus{Inner: pathexpr.Alt{Alts: []pathexpr.Expr{l, empty}}},
	} {
		inputs = append(inputs, input{e, lrn})
	}
	for _, src := range []string{"ε", "X", "L.X", "L|X", "X*", "(L.X)+", "L*.X.R|N", "(X|ε).R"} {
		inputs = append(inputs, input{pathexpr.MustParse(src), lrn})
	}
	// More than 63 positions, so a position set spans several words.
	var wide, wider []string
	for i := 0; i < 40; i++ {
		wide = append(wide, "(L|R)")
		wider = append(wider, "(L|R|N)", "N")
	}
	for _, src := range []string{
		strings.Join(wide, "."),
		"(" + strings.Join(wide, ".") + ")*.N",
		strings.Join(wider, "."),
		"L.(" + strings.Join(wider, "|") + ")+.R",
	} {
		inputs = append(inputs, input{pathexpr.MustParse(src), lrn})
	}
	// The property tests' random expressions, over an alphabet that misses
	// one of their fields.
	rng := rand.New(rand.NewSource(83))
	fields := []string{"a", "b", "c"}
	abc, ab := NewAlphabet(fields...), NewAlphabet("a", "b")
	for i := 0; i < 300; i++ {
		e := randExpr(rng, fields, 5)
		inputs = append(inputs, input{e, abc}, input{e, ab})
	}

	for _, in := range inputs {
		d, err := Compile(in.e, in.a)
		if err != nil {
			t.Fatalf("Compile(%v): %v", in.e, err)
		}
		ref := legacySubset(in.e, in.a)
		if got, want := d.NumStates(), len(ref.accept); got > want {
			t.Errorf("%v over %v: subset construction built %d states, Thompson's %d", in.e, in.a.Symbols(), got, want)
		}
		trans, accept := ref.flatten()
		if !slices.Equal(d.trans, trans) || !slices.Equal(d.accept, accept) {
			t.Errorf("%v over %v: table\n  trans %v accept %v\nThompson's\n  trans %v accept %v",
				in.e, in.a.Symbols(), d.trans, d.accept, trans, accept)
		}
	}
}

func BenchmarkTableCompile(b *testing.B) {
	exprs, a := benchDFASuite()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, e := range exprs {
			MustCompile(e, a)
		}
	}
}

func BenchmarkLegacyCompile(b *testing.B) {
	exprs, a := benchDFASuite()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, e := range exprs {
			legacyCompile(e, a)
		}
	}
}

func BenchmarkTableDecide(b *testing.B) {
	exprs, a := benchDFASuite()
	dfas := make([]*DFA, len(exprs))
	for i, e := range exprs {
		dfas[i] = MustCompile(e, a)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, x := range dfas {
			for _, y := range dfas {
				x.Includes(y)
				x.Intersect(y).IsEmpty()
				x.Equivalent(y)
			}
		}
	}
}

func BenchmarkLegacyDecide(b *testing.B) {
	exprs, a := benchDFASuite()
	dfas := make([]*legacyDFA, len(exprs))
	for i, e := range exprs {
		dfas[i] = legacyCompile(e, a)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, x := range dfas {
			for _, y := range dfas {
				legacyIncludes(x, y)
				legacyDisjoint(x, y)
				legacyEquivalent(x, y)
			}
		}
	}
}

// benchDFARow is one backend's numbers over the suite (one op = the whole
// suite: 16 compiles, or 16×16×3 decisions).
type benchDFARow struct {
	CompileNsOp int64 `json:"compile_suite_ns_op"`
	DecideNsOp  int64 `json:"decide_suite_ns_op"`
}

// benchDFAReport is the BENCH_dfa.json schema.
type benchDFAReport struct {
	Suite  string      `json:"suite"`
	Table  benchDFARow `json:"table_backend"`
	Legacy benchDFARow `json:"legacy_map_string_backend"`
}

// TestWriteBenchDFAJSON measures both backends and writes BENCH_dfa.json
// (driven by `make bench-dfa`, which sets BENCH_DFA_JSON; skipped
// otherwise).  The acceptance guards are asserted, not just reported: at
// equal verdicts (TestTableBackendMatchesLegacy), the table backend must
// compile and decide no slower than the frozen map/string backend, which
// still minimizes.
func TestWriteBenchDFAJSON(t *testing.T) {
	path := os.Getenv("BENCH_DFA_JSON")
	if path == "" {
		t.Skip("set BENCH_DFA_JSON to an output path (make bench-dfa) to run")
	}
	exprs, _ := benchDFASuite()
	report := benchDFAReport{
		Suite: fmt.Sprintf("%d expressions over {L,R,N}, pairwise includes+disjoint+equivalent", len(exprs)),
		Table: benchDFARow{
			CompileNsOp: testing.Benchmark(BenchmarkTableCompile).NsPerOp(),
			DecideNsOp:  testing.Benchmark(BenchmarkTableDecide).NsPerOp(),
		},
		Legacy: benchDFARow{
			CompileNsOp: testing.Benchmark(BenchmarkLegacyCompile).NsPerOp(),
			DecideNsOp:  testing.Benchmark(BenchmarkLegacyDecide).NsPerOp(),
		},
	}
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s:\n%s", path, data)

	if report.Table.DecideNsOp > report.Legacy.DecideNsOp {
		t.Errorf("table backend decides in %dns/suite, slower than the legacy map backend's %dns/suite",
			report.Table.DecideNsOp, report.Legacy.DecideNsOp)
	}
	if report.Table.CompileNsOp > report.Legacy.CompileNsOp {
		t.Errorf("table backend compiles in %dns/suite, slower than the legacy map backend's %dns/suite",
			report.Table.CompileNsOp, report.Legacy.CompileNsOp)
	}
}
