package automata

import (
	"fmt"

	"repro/internal/pathexpr"
)

// Summary is the Glushkov summary of a path expression's language over one
// alphabet: whether the language holds ε, and three symbol masks — the
// fields some word uses, the fields some word starts with, and the fields
// some word ends with.  Bit c stands for the alphabet's c-th symbol.  The
// fold that builds it counts only positions that lie on some accepted word,
// so a summary is a property of the language, not of the expression:
// equivalent expressions summarize equally, and L(x) ⊆ L(y) puts x's
// summary inside y's (MayInclude).  Summaries are comparable with ==, which
// is how an equivalence check is filtered.
//
// Over an alphabet of more than 64 symbols every language summarizes to one
// value, which filters nothing.
type Summary struct {
	nullable            bool
	fields, first, last uint64
}

// anySummary is the summary of every language over an alphabet too wide for
// the masks: it includes itself and equals itself.
var anySummary = Summary{nullable: true, fields: ^uint64(0), first: ^uint64(0), last: ^uint64(0)}

// Summarize folds e's summary over a.  Like the position construction, it
// gives a field outside the alphabet no position, so such a field — and ∅,
// and any concatenation with an ∅ part — denotes the empty language; ∅
// alternatives add nothing, and (∅)* is ε.
func Summarize(e pathexpr.Expr, a *Alphabet) Summary {
	if a.Size() > 64 {
		return anySummary
	}
	return summarize(e, a)
}

func summarize(e pathexpr.Expr, a *Alphabet) Summary {
	switch v := e.(type) {
	case nil, pathexpr.Epsilon:
		return Summary{nullable: true}
	case pathexpr.Empty:
		return Summary{}
	case pathexpr.Field:
		c := a.Index(v.Name)
		if c < 0 {
			return Summary{}
		}
		bit := uint64(1) << c
		return Summary{fields: bit, first: bit, last: bit}
	case pathexpr.Concat:
		s := Summary{nullable: true}
		for _, part := range v.Parts {
			s = s.Then(summarize(part, a))
		}
		return s
	case pathexpr.Alt:
		var s Summary
		for _, alt := range v.Alts {
			t := summarize(alt, a)
			s.nullable = s.nullable || t.nullable
			s.fields |= t.fields
			s.first |= t.first
			s.last |= t.last
		}
		return s
	case pathexpr.Star:
		s := summarize(v.Inner, a)
		s.nullable = true
		return s
	case pathexpr.Plus:
		return summarize(v.Inner, a)
	}
	panic(fmt.Sprintf("automata: unknown expression type %T", e))
}

// empty reports whether the summarized language is ∅: a non-empty language
// holds ε or a word with some field.
func (s Summary) empty() bool { return !s.nullable && s.fields == 0 }

// Then returns the summary of the concatenation L(s)·L(t).
func (s Summary) Then(t Summary) Summary {
	if s.empty() || t.empty() {
		return Summary{}
	}
	u := Summary{nullable: s.nullable && t.nullable, fields: s.fields | t.fields, first: s.first, last: t.last}
	if s.nullable {
		u.first |= t.first
	}
	if t.nullable {
		u.last |= s.last
	}
	return u
}

// MayInclude reports whether L(sub) ⊆ L(s) survives the summary tests:
// nullable(sub) ⇒ nullable(s), and sub's fields, first and last masks lie
// inside s's.  False means the inclusion certainly fails; true decides
// nothing.  An empty sub passes every test.
func (s Summary) MayInclude(sub Summary) bool {
	return (s.nullable || !sub.nullable) &&
		sub.fields&^s.fields == 0 &&
		sub.first&^s.first == 0 &&
		sub.last&^s.last == 0
}
