package automata

import (
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/pathexpr"
)

func compile(t *testing.T, src string, fields ...string) *DFA {
	t.Helper()
	e := pathexpr.MustParse(src)
	a := NewAlphabet(append(fields, pathexpr.Fields(e)...)...)
	d, err := Compile(e, a)
	if err != nil {
		t.Fatalf("Compile(%q): %v", src, err)
	}
	return d
}

func TestAcceptsBasics(t *testing.T) {
	d := compile(t, "a.b*.c")
	cases := []struct {
		word string
		want bool
	}{
		{"a c", true},
		{"a b c", true},
		{"a b b b c", true},
		{"a", false},
		{"c", false},
		{"a b", false},
		{"", false},
	}
	for _, c := range cases {
		word := splitWords(c.word)
		if got := d.Accepts(word); got != c.want {
			t.Errorf("Accepts(%v) = %v, want %v", word, got, c.want)
		}
	}
}

func splitWords(s string) []string {
	if s == "" {
		return nil
	}
	return strings.Fields(s)
}

func TestEpsilonAndEmpty(t *testing.T) {
	eps := compile(t, "ε", "a")
	if !eps.Accepts(nil) {
		t.Error("ε should accept the empty word")
	}
	if eps.Accepts([]string{"a"}) {
		t.Error("ε should not accept a")
	}
	a := NewAlphabet("a")
	empty, err := Compile(pathexpr.Empty{}, a)
	if err != nil {
		t.Fatal(err)
	}
	if !empty.IsEmpty() {
		t.Error("∅ should be empty")
	}
	if card, _ := empty.Cardinality(); card != CardEmpty {
		t.Errorf("∅ cardinality %v", card)
	}
}

func TestComplement(t *testing.T) {
	d := compile(t, "a+")
	comp := d.Complement()
	if comp.Accepts([]string{"a"}) {
		t.Error("complement should reject a")
	}
	if !comp.Accepts(nil) {
		t.Error("complement should accept ε")
	}
}

func TestIntersectAndIncludes(t *testing.T) {
	a := NewAlphabet("L", "R", "N")
	lln := MustCompile(pathexpr.MustParseAlphabet("LLN", a.Symbols()), a)
	lrn := MustCompile(pathexpr.MustParseAlphabet("LRN", a.Symbols()), a)
	wide := MustCompile(pathexpr.MustParse("(L|R)+N+"), a)

	if !lln.Intersect(lrn).IsEmpty() {
		t.Error("LLN ∩ LRN should be empty")
	}
	if !lln.Includes(wide) {
		t.Error("LLN ⊆ (L|R)+N+ should hold")
	}
	if wide.Includes(lln) {
		t.Error("(L|R)+N+ ⊄ LLN")
	}
	if lln.Intersect(wide).IsEmpty() {
		t.Error("LLN ∩ (L|R)+N+ should be nonempty")
	}
}

func TestIntersectPanicsOnAlphabetMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	x := MustCompile(pathexpr.MustParse("a"), NewAlphabet("a"))
	y := MustCompile(pathexpr.MustParse("b"), NewAlphabet("b"))
	x.Intersect(y)
}

func TestWitness(t *testing.T) {
	d := compile(t, "a.b|a.c.c")
	w, ok := d.Witness()
	if !ok {
		t.Fatal("no witness")
	}
	if !d.Accepts(w) {
		t.Fatalf("witness %v not accepted", w)
	}
	if len(w) != 2 {
		t.Fatalf("witness %v not shortest", w)
	}
	x := compile(t, "a", "b")
	y := compile(t, "b", "a")
	if _, ok := x.Intersect(y).Witness(); ok {
		t.Error("a ∩ b should have no witness")
	}
}

func TestCardinality(t *testing.T) {
	cases := []struct {
		src  string
		want Cardinality
	}{
		{"a", CardOne},
		{"ε", CardOne},
		{"a.b.c", CardOne},
		{"a|b", CardFinite},
		{"a|a", CardOne},
		{"a*", CardInfinite},
		{"a+", CardInfinite},
		{"a(b|ε)", CardFinite},
	}
	for _, c := range cases {
		d := compile(t, c.src, "a", "b", "c")
		got, word := d.Cardinality()
		if got != c.want {
			t.Errorf("Cardinality(%q) = %v, want %v", c.src, got, c.want)
		}
		if got == CardOne && !d.Accepts(word) {
			t.Errorf("unique word %v of %q not accepted", word, c.src)
		}
	}
	// Unique word extraction must reproduce the word exactly.
	d := compile(t, "a.b.a")
	_, w := d.Cardinality()
	if !reflect.DeepEqual(w, []string{"a", "b", "a"}) {
		t.Errorf("unique word = %v", w)
	}
}

// TestCardinalityConcurrent: DFAs are shared across provers, and the first
// Cardinality calls on one may race; every caller must get the answer a
// private compile gives.
func TestCardinalityConcurrent(t *testing.T) {
	for _, src := range []string{"a.b.a", "a|b", "a*"} {
		shared := compile(t, src, "a", "b")
		wantCard, wantWord := compile(t, src, "a", "b").Cardinality()
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if card, word := shared.Cardinality(); card != wantCard || !reflect.DeepEqual(word, wantWord) {
					t.Errorf("Cardinality(%q) = %v %v, want %v %v", src, card, word, wantCard, wantWord)
				}
			}()
		}
		wg.Wait()
	}
}

func TestMaxWordLen(t *testing.T) {
	if got := compile(t, "a.b.c").MaxWordLen(); got != 3 {
		t.Errorf("MaxWordLen(abc) = %d", got)
	}
	if got := compile(t, "a|a.b").MaxWordLen(); got != 2 {
		t.Errorf("MaxWordLen(a|ab) = %d", got)
	}
	if got := compile(t, "a*").MaxWordLen(); got != math.MaxInt {
		t.Errorf("MaxWordLen(a*) = %d", got)
	}
	a := NewAlphabet("a")
	empty := MustCompile(pathexpr.Empty{}, a)
	if got := empty.MaxWordLen(); got != -1 {
		t.Errorf("MaxWordLen(∅) = %d", got)
	}
}

func TestMinimizePreservesLanguage(t *testing.T) {
	exprs := []string{"a*b|a*b", "(a|b)*abb", "a+a*", "(a.b)*|ε", "a.b.c|a.b.d"}
	for _, src := range exprs {
		d := compile(t, src, "a", "b", "c", "d")
		m := d.Minimize()
		if !d.Equivalent(m) {
			t.Errorf("Minimize(%q) changed the language", src)
		}
		if m.NumStates() > d.NumStates() {
			t.Errorf("Minimize(%q) grew: %d -> %d states", src, d.NumStates(), m.NumStates())
		}
	}
}

func TestCompileStateLimit(t *testing.T) {
	// Force subset construction over the limit with a pathological pattern:
	// (a|b)* a (a|b)^n needs ~2^n DFA states.
	var b strings.Builder
	b.WriteString("(a|b)*a")
	for i := 0; i < 20; i++ {
		b.WriteString("(a|b)")
	}
	e := pathexpr.MustParse(b.String())
	_, err := CompileLimit(e, NewAlphabet("a", "b"), 256)
	if err == nil {
		t.Fatal("expected state-limit error")
	}
	var lim ErrStateLimit
	if !asErr(err, &lim) {
		t.Fatalf("error %v is not ErrStateLimit", err)
	}
}

func asErr(err error, target *ErrStateLimit) bool {
	e, ok := err.(ErrStateLimit)
	if ok {
		*target = e
	}
	return ok
}

func TestCacheReuses(t *testing.T) {
	c := NewSharedCache(0, 1, 0)
	a := NewAlphabet("x", "y")
	e := pathexpr.MustParse("x.y*")
	d1, err := c.DFA(pathexpr.Intern(e), a)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := c.DFA(node("x.y*"), a)
	if err != nil {
		t.Fatal(err)
	}
	if d1 != d2 {
		t.Error("cache did not reuse DFA")
	}
	if c.Len() != 1 {
		t.Errorf("cache has %d entries, want 1", c.Len())
	}
	ok, err := c.Includes(node("x"), node("x.y*"), a)
	if err != nil || !ok {
		t.Errorf("Includes: %v %v", ok, err)
	}
	ok, err = c.Disjoint(node("x"), node("y"), a)
	if err != nil || !ok {
		t.Errorf("Disjoint: %v %v", ok, err)
	}
	ok, err = c.Equivalent(node("x.y*"), node("x|x.y+"), a)
	if err != nil || !ok {
		t.Errorf("Equivalent: %v %v", ok, err)
	}
}

// TestPropertyWordMembership: any word is accepted by its own expression and
// by any star-closure containing its symbols.
func TestPropertyWordMembership(t *testing.T) {
	fields := []string{"a", "b", "c"}
	a := NewAlphabet(fields...)
	universe := MustCompile(pathexpr.MustParse("(a|b|c)*"), a)
	f := func(raw []byte) bool {
		word := make([]string, 0, len(raw)%8)
		for i := 0; i < len(raw)%8; i++ {
			word = append(word, fields[int(raw[i])%len(fields)])
		}
		self := MustCompile(pathexpr.FromWord(word), a)
		return self.Accepts(word) && universe.Accepts(word)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestPropertyComplementPartition: for random words, exactly one of d and
// its complement accepts.
func TestPropertyComplementPartition(t *testing.T) {
	fields := []string{"a", "b"}
	a := NewAlphabet(fields...)
	d := MustCompile(pathexpr.MustParse("a(a|b)*b"), a)
	comp := d.Complement()
	f := func(raw []byte) bool {
		word := make([]string, 0, len(raw)%10)
		for i := 0; i < len(raw)%10; i++ {
			word = append(word, fields[int(raw[i])%2])
		}
		return d.Accepts(word) != comp.Accepts(word)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestPropertyInclusionBySampling: if Includes says L1 ⊆ L2, then every
// sampled word of L1 is in L2.
func TestPropertyInclusionBySampling(t *testing.T) {
	a := NewAlphabet("a", "b")
	sub := MustCompile(pathexpr.MustParse("a+b"), a)
	sup := MustCompile(pathexpr.MustParse("a(a|b)*"), a)
	if !sub.Includes(sup) {
		t.Fatal("a+b ⊆ a(a|b)* should hold")
	}
	f := func(n uint8) bool {
		word := []string{}
		for i := 0; i < int(n%12)+1; i++ {
			word = append(word, "a")
		}
		word = append(word, "b")
		return !sub.Accepts(word) || sup.Accepts(word)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestUndeclaredFieldMeansEmpty(t *testing.T) {
	// Compiling an expression whose field is not in the alphabet yields the
	// empty language: such a path traverses no edge of the modeled structure.
	a := NewAlphabet("a")
	d := MustCompile(pathexpr.MustParse("z"), a)
	if !d.IsEmpty() {
		t.Error("undeclared field should give the empty language")
	}
}
