package automata

import (
	"math/rand"
	"testing"

	"repro/internal/pathexpr"
)

// randExpr generates a random path expression over the fields.
func randExpr(rng *rand.Rand, fields []string, depth int) pathexpr.Expr {
	if depth <= 0 || rng.Intn(3) == 0 {
		if rng.Intn(6) == 0 {
			return pathexpr.Eps
		}
		return pathexpr.F(fields[rng.Intn(len(fields))])
	}
	switch rng.Intn(4) {
	case 0:
		return pathexpr.Cat(randExpr(rng, fields, depth-1), randExpr(rng, fields, depth-1))
	case 1:
		return pathexpr.Or(randExpr(rng, fields, depth-1), randExpr(rng, fields, depth-1))
	case 2:
		return pathexpr.Rep(randExpr(rng, fields, depth-1))
	default:
		return pathexpr.Rep1(randExpr(rng, fields, depth-1))
	}
}

// randWord draws a random word.
func randWord(rng *rand.Rand, fields []string, maxLen int) []string {
	n := rng.Intn(maxLen + 1)
	w := make([]string, n)
	for i := range w {
		w[i] = fields[rng.Intn(len(fields))]
	}
	return w
}

// TestPropertySimplifyPreservesLanguage: Simplify must not change the
// recognized language.
func TestPropertySimplifyPreservesLanguage(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	fields := []string{"a", "b"}
	a := NewAlphabet(fields...)
	for trial := 0; trial < 150; trial++ {
		e := randExpr(rng, fields, 4)
		d1 := MustCompile(e, a)
		d2 := MustCompile(pathexpr.Simplify(e), a)
		if !d1.Equivalent(d2) {
			t.Fatalf("Simplify changed the language of %v", e)
		}
	}
}

// TestPropertyDesugarPreservesLanguage: a+ → a·a* is an equivalence.
func TestPropertyDesugarPreservesLanguage(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	fields := []string{"a", "b"}
	a := NewAlphabet(fields...)
	for trial := 0; trial < 150; trial++ {
		e := randExpr(rng, fields, 4)
		d1 := MustCompile(e, a)
		d2 := MustCompile(pathexpr.Desugar(e), a)
		if !d1.Equivalent(d2) {
			t.Fatalf("Desugar changed the language of %v", e)
		}
	}
}

// TestPropertyBooleanOpsAgreeWithMembership: on sampled words, intersection
// and complement behave pointwise.
func TestPropertyBooleanOpsAgreeWithMembership(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	fields := []string{"a", "b"}
	a := NewAlphabet(fields...)
	for trial := 0; trial < 100; trial++ {
		e1 := randExpr(rng, fields, 3)
		e2 := randExpr(rng, fields, 3)
		d1 := MustCompile(e1, a)
		d2 := MustCompile(e2, a)
		inter := d1.Intersect(d2)
		comp := d1.Complement()
		for i := 0; i < 25; i++ {
			w := randWord(rng, fields, 6)
			if inter.Accepts(w) != (d1.Accepts(w) && d2.Accepts(w)) {
				t.Fatalf("intersection wrong on %v for %v ∩ %v", w, e1, e2)
			}
			if comp.Accepts(w) == d1.Accepts(w) {
				t.Fatalf("complement wrong on %v for %v", w, e1)
			}
		}
	}
}

// TestPropertyInclusionAgreesWithSampling: when Includes holds, sampled
// members of the subset are members of the superset; when it fails, the
// witness of the difference is a genuine counterexample.
func TestPropertyInclusionAgreesWithSampling(t *testing.T) {
	rng := rand.New(rand.NewSource(89))
	fields := []string{"a", "b"}
	a := NewAlphabet(fields...)
	for trial := 0; trial < 100; trial++ {
		e1 := randExpr(rng, fields, 3)
		e2 := randExpr(rng, fields, 3)
		d1 := MustCompile(e1, a)
		d2 := MustCompile(e2, a)
		if d1.Includes(d2) {
			for i := 0; i < 25; i++ {
				w := randWord(rng, fields, 6)
				if d1.Accepts(w) && !d2.Accepts(w) {
					t.Fatalf("Includes(%v ⊆ %v) but %v separates them", e1, e2, w)
				}
			}
		} else {
			diff := d1.Intersect(d2.Complement())
			w, ok := diff.Witness()
			if !ok {
				t.Fatalf("inclusion failed but difference is empty: %v vs %v", e1, e2)
			}
			if !d1.Accepts(w) || d2.Accepts(w) {
				t.Fatalf("bogus witness %v for %v ⊄ %v", w, e1, e2)
			}
		}
	}
}

// TestPropertyCardinalityOneHasUniqueWord: CardOne's extracted word is
// accepted, and mutating it is rejected.
func TestPropertyCardinalityOneHasUniqueWord(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	fields := []string{"a", "b"}
	a := NewAlphabet(fields...)
	found := 0
	for trial := 0; trial < 300; trial++ {
		e := randExpr(rng, fields, 3)
		d := MustCompile(e, a)
		card, w := d.Cardinality()
		if card != CardOne {
			continue
		}
		found++
		if !d.Accepts(w) {
			t.Fatalf("unique word %v of %v rejected", w, e)
		}
		// Any single-symbol flip must be rejected.
		for i := range w {
			flipped := append([]string{}, w...)
			if flipped[i] == "a" {
				flipped[i] = "b"
			} else {
				flipped[i] = "a"
			}
			if d.Accepts(flipped) {
				t.Fatalf("%v accepts both %v and %v yet claims cardinality one", e, w, flipped)
			}
		}
	}
	if found == 0 {
		t.Error("no singleton languages generated; test has no power")
	}
}
