package automata

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/pathexpr"
)

// languageSummary reads the summary off a DFA: nullable is whether the
// start state accepts, and a symbol is in fields (first, last) when some
// transition on it between useful states exists (leaves the start state,
// enters an accepting state).  This is the language's summary by
// definition, so the fold must reproduce it exactly.
func languageSummary(d *DFA) Summary {
	k := d.alphabet.Size()
	useful := d.usefulStates()
	s := Summary{nullable: d.accept[0]}
	for q := range d.accept {
		if !useful[q] {
			continue
		}
		for c := 0; c < k; c++ {
			t := d.trans[q*k+c]
			if !useful[t] {
				continue
			}
			bit := uint64(1) << c
			s.fields |= bit
			if q == 0 {
				s.first |= bit
			}
			if d.accept[t] {
				s.last |= bit
			}
		}
	}
	return s
}

// summaryCorpus is the random generator's expressions plus the shapes the
// fold treats specially: ∅ in every position, ε, fields outside the
// alphabet, and nested closures built as raw literals (the smart
// constructors would collapse them).
func summaryCorpus(rng *rand.Rand, fields []string, n int) []pathexpr.Expr {
	a, b, z := pathexpr.F("a"), pathexpr.F("b"), pathexpr.F("z")
	empty := pathexpr.Empty{}
	out := []pathexpr.Expr{
		empty, pathexpr.Eps, a, b, z,
		pathexpr.Concat{Parts: []pathexpr.Expr{a, empty}},
		pathexpr.Concat{Parts: []pathexpr.Expr{a, z, b}},
		pathexpr.Alt{Alts: []pathexpr.Expr{a, empty}},
		pathexpr.Alt{Alts: []pathexpr.Expr{z, pathexpr.Concat{Parts: []pathexpr.Expr{b, a}}}},
		pathexpr.Star{Inner: empty},
		pathexpr.Plus{Inner: empty},
		pathexpr.Star{Inner: z},
		pathexpr.Star{Inner: pathexpr.Star{Inner: pathexpr.Concat{Parts: []pathexpr.Expr{a, b}}}},
		pathexpr.Plus{Inner: pathexpr.Star{Inner: pathexpr.Plus{Inner: a}}},
		pathexpr.Concat{Parts: []pathexpr.Expr{pathexpr.Star{Inner: a}, pathexpr.Star{Inner: b}}},
		pathexpr.Concat{Parts: []pathexpr.Expr{pathexpr.Star{Inner: empty}, a, pathexpr.Alt{Alts: []pathexpr.Expr{empty, pathexpr.Eps}}}},
	}
	for i := 0; i < n; i++ {
		out = append(out, randExpr(rng, fields, 4))
	}
	return out
}

// TestSummaryFilterSound: the fold is exact (it equals the summary read off
// the expression's DFA), and so the filter fails safe — whenever
// MayInclude says no, inclusion fails, and whenever two summaries differ,
// the languages do.  Over an alphabet of more than 64 symbols the filter
// says no to nothing.
func TestSummaryFilterSound(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	exprs := summaryCorpus(rng, []string{"a", "b", "c", "z"}, 120)
	for _, a := range []*Alphabet{NewAlphabet("a", "b"), NewAlphabet("a", "b", "c")} {
		dfas := make([]*DFA, len(exprs))
		sums := make([]Summary, len(exprs))
		for i, e := range exprs {
			dfas[i] = MustCompile(e, a)
			sums[i] = Summarize(e, a)
			if want := languageSummary(dfas[i]); sums[i] != want {
				t.Fatalf("over %q, Summarize(%v) = %+v, the language's summary is %+v", a.Key(), e, sums[i], want)
			}
		}
		filteredIncl, filteredEq := 0, 0
		for i := range exprs {
			for j := range exprs {
				if !sums[j].MayInclude(sums[i]) {
					filteredIncl++
					if dfas[i].Includes(dfas[j]) {
						t.Fatalf("over %q, the filter rejects %v ⊆ %v, which holds", a.Key(), exprs[i], exprs[j])
					}
				}
				if sums[i] != sums[j] {
					filteredEq++
					if dfas[i].Equivalent(dfas[j]) {
						t.Fatalf("over %q, the summaries of %v and %v differ, their languages are equal", a.Key(), exprs[i], exprs[j])
					}
				}
				if got, want := sums[i].Then(sums[j]), Summarize(pathexpr.Concat{Parts: []pathexpr.Expr{exprs[i], exprs[j]}}, a); got != want {
					t.Fatalf("over %q, Then of %v and %v = %+v, the concatenation summarizes to %+v", a.Key(), exprs[i], exprs[j], got, want)
				}
			}
		}
		if filteredIncl == 0 || filteredEq == 0 {
			t.Fatalf("over %q the filter rejected %d inclusions and %d equivalences; the test is vacuous", a.Key(), filteredIncl, filteredEq)
		}
	}

	syms := make([]string, 65)
	for i := range syms {
		syms[i] = fmt.Sprintf("f%02d", i)
	}
	wide := NewAlphabet(syms...)
	first := Summarize(pathexpr.F("f00"), wide)
	for _, e := range exprs[:40] {
		s := Summarize(e, wide)
		if s != first || !s.MayInclude(first) || !first.MayInclude(s) {
			t.Fatalf("over %d symbols, Summarize(%v) = %+v filters something", wide.Size(), e, s)
		}
	}
}
