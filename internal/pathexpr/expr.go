// Package pathexpr implements the path-expression language of the APT
// dependence test: regular expressions whose alphabet is the set of pointer
// field names of a data structure.
//
// An access path such as root.LLN or hr.nrowE+ncolE* denotes the set of
// vertices reached from a handle vertex by traversing any edge-label word in
// the language of the expression.  Axioms and access paths are both written
// in this language (paper, §3.1).
package pathexpr

import (
	"slices"
	"sort"
	"strings"
)

// Expr is a path expression node.  The concrete types are Empty, Epsilon,
// Field, Concat, Alt, Star, and Plus.  Expressions are immutable after
// construction; all transformation helpers return fresh nodes.
type Expr interface {
	// String renders the expression in the paper's concrete syntax.
	String() string
	// Size is the structural size of the expression: the number of field
	// occurrences plus the number of operators.  The prover uses it as a
	// well-founded measure when applying induction hypotheses.
	Size() int
	isExpr()
}

// Empty denotes the empty language ∅ (no path at all, not even ε).
type Empty struct{}

// Epsilon denotes the empty path ε: the handle vertex itself.
type Epsilon struct{}

// Field denotes a single pointer-field traversal, e.g. L or ncolE.
type Field struct {
	Name string
}

// Concat denotes path concatenation: traverse Parts in order.
type Concat struct {
	Parts []Expr
}

// Alt denotes alternation (selection between paths).
type Alt struct {
	Alts []Expr
}

// Star denotes zero or more repetitions of Inner (Kleene star).
type Star struct {
	Inner Expr
}

// Plus denotes one or more repetitions of Inner.  The paper's axioms use +
// heavily (e.g. ∀p, p.ncolE+ <> p.nrowE+), so Plus is first-class rather
// than desugared, which keeps axiom texts and proof traces readable.
type Plus struct {
	Inner Expr
}

func (Empty) isExpr()   {}
func (Epsilon) isExpr() {}
func (Field) isExpr()   {}
func (Concat) isExpr()  {}
func (Alt) isExpr()     {}
func (Star) isExpr()    {}
func (Plus) isExpr()    {}

func (Empty) Size() int   { return 1 }
func (Epsilon) Size() int { return 1 }
func (Field) Size() int   { return 1 }

func (c Concat) Size() int {
	n := 0
	for _, p := range c.Parts {
		n += p.Size()
	}
	return n
}

func (a Alt) Size() int {
	n := 1
	for _, p := range a.Alts {
		n += p.Size()
	}
	return n
}

func (s Star) Size() int { return 1 + s.Inner.Size() }
func (p Plus) Size() int { return 1 + p.Inner.Size() }

// Eps is the shared ε expression.
var Eps Expr = Epsilon{}

// F returns a field expression for name.
func F(name string) Expr { return Field{Name: name} }

// Cat concatenates parts, flattening nested concatenations and dropping ε.
func Cat(parts ...Expr) Expr {
	flat := make([]Expr, 0, len(parts))
	for _, p := range parts {
		switch v := p.(type) {
		case nil:
			continue
		case Epsilon:
			continue
		case Empty:
			return Empty{}
		case Concat:
			flat = append(flat, v.Parts...)
		default:
			flat = append(flat, p)
		}
	}
	switch len(flat) {
	case 0:
		return Eps
	case 1:
		return flat[0]
	}
	return Concat{Parts: flat}
}

// Or builds an alternation, flattening nested alternations and removing
// exact duplicates.  Duplicate elimination is by interned identity — the
// same equality the old per-alternative String() keys decided, without
// re-rendering every alternative on every construction.  First occurrence
// wins, so the alternative ordering is deterministic in the input order.
func Or(alts ...Expr) Expr {
	flat := make([]Expr, 0, len(alts))
	var seenBuf [8]*Node
	seen := seenBuf[:0]
	add := func(x Expr) {
		n := Intern(x)
		for _, s := range seen {
			if s == n {
				return
			}
		}
		seen = append(seen, n)
		flat = append(flat, x)
	}
	for _, a := range alts {
		switch v := a.(type) {
		case nil, Empty:
			continue
		case Alt:
			for _, x := range v.Alts {
				add(x)
			}
		default:
			add(a)
		}
	}
	switch len(flat) {
	case 0:
		return Empty{}
	case 1:
		return flat[0]
	}
	return Alt{Alts: flat}
}

// Rep returns the Kleene closure of e, simplifying nested closures.
func Rep(e Expr) Expr {
	switch v := e.(type) {
	case Epsilon:
		return Eps
	case Empty:
		return Eps
	case Star:
		return v
	case Plus:
		return Star{Inner: v.Inner}
	}
	return Star{Inner: e}
}

// Rep1 returns the one-or-more closure of e, simplifying nested closures.
func Rep1(e Expr) Expr {
	switch v := e.(type) {
	case Epsilon:
		return Eps
	case Empty:
		return Empty{}
	case Star:
		return v
	case Plus:
		return v
	}
	return Plus{Inner: e}
}

func (Empty) String() string   { return "∅" }
func (Epsilon) String() string { return "ε" }
func (f Field) String() string { return f.Name }

// Concat always prints with '.' separators: the dotted form re-parses
// unambiguously under Parse (juxtaposed single letters would re-lex as one
// multi-character identifier), and String doubles as a canonical key in
// caches, where ambiguity would conflate distinct languages.  Use Compact
// for the paper's juxtaposed display style.
func (c Concat) String() string {
	var b strings.Builder
	for i, p := range c.Parts {
		if i > 0 {
			b.WriteByte('.')
		}
		b.WriteString(parenthesize(p, precConcat))
	}
	return b.String()
}

// Compact renders e in the paper's concrete style: concatenations of
// single-character fields print by juxtaposition (LLN instead of L.L.N).
// The compact form is for display; it re-parses only via ParseAlphabet with
// the field set.
func Compact(e Expr) string {
	if e == nil {
		return "ε"
	}
	for _, f := range Fields(e) {
		if len(f) > 1 {
			return e.String()
		}
	}
	return strings.ReplaceAll(e.String(), ".", "")
}

func (a Alt) String() string {
	var b strings.Builder
	for i, p := range a.Alts {
		if i > 0 {
			b.WriteByte('|')
		}
		b.WriteString(parenthesize(p, precAlt))
	}
	return b.String()
}

func (s Star) String() string { return parenthesize(s.Inner, precRep) + "*" }
func (p Plus) String() string { return parenthesize(p.Inner, precRep) + "+" }

// Operator precedence levels for printing.
const (
	precAlt = iota
	precConcat
	precRep
)

func precOf(e Expr) int {
	switch e.(type) {
	case Alt:
		return precAlt
	case Concat:
		return precConcat
	default:
		return precRep
	}
}

func parenthesize(e Expr, ctx int) string {
	if precOf(e) < ctx {
		return "(" + e.String() + ")"
	}
	return e.String()
}

// Walk calls fn on e and every sub-expression of e, in preorder.
func Walk(e Expr, fn func(Expr)) {
	if e == nil {
		return
	}
	fn(e)
	switch v := e.(type) {
	case Concat:
		for _, p := range v.Parts {
			Walk(p, fn)
		}
	case Alt:
		for _, p := range v.Alts {
			Walk(p, fn)
		}
	case Star:
		Walk(v.Inner, fn)
	case Plus:
		Walk(v.Inner, fn)
	}
}

// Fields returns the sorted set of field names mentioned in the expressions.
func Fields(exprs ...Expr) []string {
	set := make(map[string]bool)
	for _, e := range exprs {
		Walk(e, func(x Expr) {
			if f, ok := x.(Field); ok {
				set[f.Name] = true
			}
		})
	}
	out := make([]string, 0, len(set))
	for name := range set {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Equal reports structural equality of two expressions (the equality the
// canonical rendering decides).  Decided by interned identity: one pointer
// comparison once both sides are warm in the interner.
func Equal(a, b Expr) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	return Intern(a) == Intern(b)
}

// Components returns the top-level concatenation components of e.  A
// non-concatenation expression is a single component.  ε components are
// dropped; ε itself has no components.
func Components(e Expr) []Expr {
	switch v := e.(type) {
	case nil:
		return nil
	case Epsilon:
		return nil
	case Concat:
		out := make([]Expr, 0, len(v.Parts))
		for _, p := range v.Parts {
			if _, ok := p.(Epsilon); ok {
				continue
			}
			out = append(out, p)
		}
		return out
	default:
		return []Expr{e}
	}
}

// FromComponents rebuilds an expression from a component sequence.
func FromComponents(comps []Expr) Expr {
	return Cat(comps...)
}

// Simplify applies local rewrites: flattening, ε and ∅ propagation, nested
// closure collapsing, and duplicate-alternative removal.  The result denotes
// the same language.
func Simplify(e Expr) Expr {
	switch v := e.(type) {
	case nil:
		return Eps
	case Empty, Epsilon, Field:
		return e
	case Concat:
		parts := make([]Expr, len(v.Parts))
		for i, p := range v.Parts {
			parts[i] = Simplify(p)
		}
		return Cat(parts...)
	case Alt:
		alts := make([]Expr, len(v.Alts))
		for i, p := range v.Alts {
			alts[i] = Simplify(p)
		}
		return Or(alts...)
	case Star:
		return Rep(Simplify(v.Inner))
	case Plus:
		return Rep1(Simplify(v.Inner))
	}
	return e
}

// Desugar rewrites every Plus node a+ into a·a*, producing an equivalent
// expression over {ε, field, concat, alt, star} only.
func Desugar(e Expr) Expr {
	switch v := e.(type) {
	case nil:
		return Eps
	case Empty, Epsilon, Field:
		return e
	case Concat:
		parts := make([]Expr, len(v.Parts))
		for i, p := range v.Parts {
			parts[i] = Desugar(p)
		}
		return Cat(parts...)
	case Alt:
		alts := make([]Expr, len(v.Alts))
		for i, p := range v.Alts {
			alts[i] = Desugar(p)
		}
		return Or(alts...)
	case Star:
		return Rep(Desugar(v.Inner))
	case Plus:
		inner := Desugar(v.Inner)
		return Cat(inner, Rep(inner))
	}
	return e
}

// Word returns the single word denoted by e if e is a concatenation of
// fields only (possibly ε), along with true; otherwise it returns nil, false.
// Words correspond to concrete traversals: because pointer fields are
// single-valued, a word reaches at most one vertex from a given handle.
func Word(e Expr) ([]string, bool) {
	switch v := e.(type) {
	case nil, Epsilon:
		return []string{}, true
	case Field:
		return []string{v.Name}, true
	case Concat:
		var w []string
		for _, p := range v.Parts {
			sub, ok := Word(p)
			if !ok {
				return nil, false
			}
			w = append(w, sub...)
		}
		return w, true
	}
	return nil, false
}

// Count classifies the size of a language: no word, exactly one word, or
// more than one.
type Count uint8

// Language size classes.
const (
	NoWord Count = iota
	OneWord
	ManyWords
)

// Singleton computes e's size class and its one word when the class is
// OneWord, by structural recursion.  Each rule is exact: ∅ absorbs a
// concatenation; a concatenation of one-word parts spells one word, while
// one part with several words (and none empty) gives several; ∅
// alternatives add nothing and one-word alternatives with equal words
// merge; (∅)*, (ε)* and ε+ are ε; ∅+ is ∅; any other closure repeats a
// non-empty word or a choice, so it has infinitely many words.
func Singleton(e Expr) (Count, []string) {
	switch v := e.(type) {
	case nil, Epsilon:
		return OneWord, []string{}
	case Empty:
		return NoWord, nil
	case Field:
		return OneWord, []string{v.Name}
	case Concat:
		c, w := OneWord, []string{}
		for _, p := range v.Parts {
			switch pc, pw := Singleton(p); {
			case pc == NoWord:
				return NoWord, nil
			case pc == ManyWords:
				c, w = ManyWords, nil
			case c == OneWord:
				w = append(w, pw...)
			}
		}
		return c, w
	case Alt:
		c, w := NoWord, []string(nil)
		for _, p := range v.Alts {
			switch pc, pw := Singleton(p); {
			case pc == NoWord:
			case pc == ManyWords || c == OneWord && !slices.Equal(w, pw):
				return ManyWords, nil
			default:
				c, w = OneWord, pw
			}
		}
		return c, w
	case Star:
		if c, w := Singleton(v.Inner); c == NoWord || c == OneWord && len(w) == 0 {
			return OneWord, []string{}
		}
	case Plus:
		switch c, w := Singleton(v.Inner); {
		case c == NoWord:
			return NoWord, nil
		case c == OneWord && len(w) == 0:
			return OneWord, w
		}
	}
	return ManyWords, nil
}

// FromWord builds a concatenation of fields from a word.
func FromWord(w []string) Expr {
	parts := make([]Expr, len(w))
	for i, s := range w {
		parts[i] = F(s)
	}
	return Cat(parts...)
}
