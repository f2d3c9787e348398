// Package automata provides the finite-automata machinery behind APT's
// decidable theorem proving: DFAs compiled straight from path expressions
// by the position (Glushkov / McNaughton–Yamada) construction, and the
// language queries the prover needs (emptiness, inclusion, equivalence,
// disjointness, witnesses), decided over products explored on the fly.
//
// The paper (§4.1) decides RE1 ⊆ RE2 by checking
// L(M1) ∩ complement(L(M2)) = ∅ over DFAs M1, M2; this package implements
// exactly that, over an explicit field alphabet.  The answer is the same on
// any DFA for each language, so DFAs are kept as the construction builds
// them and never minimized.
package automata

import (
	"slices"
	"sync"

	"repro/internal/pathexpr"
)

// Alphabet is an ordered set of field names.  All automata operations that
// combine two machines require them to share an alphabet.
type Alphabet struct {
	symbols []string
	index   map[string]int
	key     string
	id      uint64
}

// alphaIDs interns alphabets by key, so two alphabets built from the same
// symbol set are one *Alphabet with one stable 64-bit ID, and the DFA caches
// can key on integers instead of concatenating key strings per lookup.
// Alphabets are read-only once built, so one value serves every caller.
var alphaIDs = struct {
	mu    sync.Mutex
	byKey map[string]*Alphabet
	next  uint64
}{byKey: make(map[string]*Alphabet)}

// NewAlphabet returns the alphabet of the given field names, deduplicated
// and sorted.  An alphabet seen before is returned as is; a new one is
// built, with its symbol index, on first sight.
func NewAlphabet(fields ...string) *Alphabet {
	var symBuf [16]string
	syms := append(symBuf[:0], fields...)
	slices.Sort(syms)
	syms = slices.Compact(syms)
	if len(syms) > 0 && syms[0] == "" {
		syms = syms[1:]
	}
	var keyBuf [128]byte
	key := keyBuf[:0]
	for i, s := range syms {
		if i > 0 {
			key = append(key, ' ')
		}
		key = append(key, s...)
	}
	alphaIDs.mu.Lock()
	defer alphaIDs.mu.Unlock()
	if a, ok := alphaIDs.byKey[string(key)]; ok {
		return a
	}
	a := &Alphabet{
		symbols: make([]string, len(syms)),
		index:   make(map[string]int, len(syms)),
		key:     string(key),
	}
	for i, s := range syms {
		a.symbols[i] = s
		a.index[s] = i
	}
	alphaIDs.next++
	a.id = alphaIDs.next
	alphaIDs.byKey[a.key] = a
	return a
}

// AlphabetOf builds the alphabet of all fields mentioned in the expressions.
func AlphabetOf(exprs ...pathexpr.Expr) *Alphabet {
	return NewAlphabet(pathexpr.Fields(exprs...)...)
}

// Size returns the number of symbols.
func (a *Alphabet) Size() int { return len(a.symbols) }

// Symbols returns the symbols in sorted order.  The caller must not modify
// the returned slice.
func (a *Alphabet) Symbols() []string { return a.symbols }

// Index returns the index of symbol s, or -1 if s is not in the alphabet.
func (a *Alphabet) Index(s string) int {
	i, ok := a.index[s]
	if !ok {
		return -1
	}
	return i
}

// Contains reports whether s is a symbol of the alphabet.
func (a *Alphabet) Contains(s string) bool { _, ok := a.index[s]; return ok }

// Key returns a canonical string identifying the alphabet, for caching.
// It is precomputed at construction: cache lookups hit it on every DFA
// request, far too hot a path for per-call rendering.
func (a *Alphabet) Key() string {
	return a.key
}

// ID returns the alphabet's stable 64-bit identity: equal symbol sets share
// an ID for the lifetime of the process.  The DFA caches combine it with
// interned expression IDs into fixed-size struct keys.
func (a *Alphabet) ID() uint64 {
	return a.id
}
