package automata

import (
	"fmt"
	"math/bits"
	"slices"

	"repro/internal/pathexpr"
)

// This file holds the table-compiled backend: the position construction
// (Glushkov / McNaughton–Yamada, the "direct RE→DFA" method) from an
// expression straight to a dense []int32 DFA table.  It builds no NFA,
// renders no string, and does not minimize.
//
// A position is an occurrence of an alphabet field in the expression,
// numbered 1..P left to right; bit 0 marks the start.  Every set is a
// bitset of w = ⌈(P+1)/64⌉ words.  A DFA state is the set of positions the
// input read so far can end on: its successor on symbol c is the union of
// its positions' follow sets restricted to the positions labelled c, and
// it accepts iff it meets last (which holds the start bit iff the
// expression is nullable).  These are the Thompson subset-construction
// sets reduced to their important states, so the construction visits the
// same states in the same order and never more of them.

// positions is the position automaton of one expression, built by one walk
// over it.  All its sets are slices of one []uint64.
type positions struct {
	alphabet *Alphabet
	w        int // words per set
	n        int // the next position number; 0 is the start
	// follow[p*w:(p+1)*w] is the set of positions that can come right after
	// position p; the start's follow set is the expression's first set.
	follow []uint64
	// symMask[c*w:(c+1)*w] is the set of positions labelled symbol c.
	symMask []uint64
	last    []uint64
	// stack holds the (first, last) set pairs of the subexpressions being
	// combined, 2w words per pair.
	stack []uint64
}

// newPositions builds the position automaton of e over a.  Symbols absent
// from the alphabet get no position, so they denote the empty language: a
// path using an undeclared field traverses no edge of the modeled
// structure.
func newPositions(e pathexpr.Expr, a *Alphabet) positions {
	// The walk's stack never holds more pairs than e has nodes, plus one
	// for a nil e.
	npos, nodes := 0, 1
	pathexpr.Walk(e, func(x pathexpr.Expr) {
		nodes++
		if f, ok := x.(pathexpr.Field); ok && a.Contains(f.Name) {
			npos++
		}
	})
	w := npos/64 + 1
	k := a.Size()
	nf, nm := (npos+1)*w, k*w
	buf := make([]uint64, nf+nm+w+2*w*nodes)
	ps := positions{
		alphabet: a,
		w:        w,
		n:        1,
		follow:   buf[:nf:nf],
		symMask:  buf[nf : nf+nm : nf+nm],
		last:     buf[nf+nm : nf+nm+w : nf+nm+w],
		stack:    buf[nf+nm+w : nf+nm+w],
	}
	nullable := ps.walk(e)
	first, last := ps.top()
	copy(ps.follow[:w], first)
	copy(ps.last, last)
	if nullable {
		ps.last[0] |= 1
	}
	return ps
}

// top returns the first and last sets of the pair on top of the stack.
func (ps *positions) top() (first, last []uint64) {
	n, w := len(ps.stack), ps.w
	return ps.stack[n-2*w : n-w], ps.stack[n-w:]
}

// push pushes an empty (first, last) pair.
func (ps *positions) push() {
	ps.stack = append(ps.stack, make([]uint64, 2*ps.w)...)
}

// pop drops the pair on top of the stack.
func (ps *positions) pop() { ps.stack = ps.stack[:len(ps.stack)-2*ps.w] }

// followWith adds set to the follow set of every position in from.
func (ps *positions) followWith(from, set []uint64) {
	for j, word := range from {
		for ; word != 0; word &= word - 1 {
			p := j*64 + bits.TrailingZeros64(word)
			or(ps.follow[p*ps.w:(p+1)*ps.w], set)
		}
	}
}

// walk pushes e's (first, last) pair, filling in the follow sets of e's
// positions, and reports whether e is nullable.
func (ps *positions) walk(e pathexpr.Expr) bool {
	w := ps.w
	switch v := e.(type) {
	case nil, pathexpr.Epsilon:
		ps.push()
		return true
	case pathexpr.Empty:
		ps.push()
		return false
	case pathexpr.Field:
		ps.push()
		if c := ps.alphabet.Index(v.Name); c >= 0 {
			p := ps.n
			ps.n++
			first, last := ps.top()
			bit := uint64(1) << (p & 63)
			first[p/64] |= bit
			last[p/64] |= bit
			ps.symMask[c*w+p/64] |= bit
		}
		return false
	case pathexpr.Concat:
		ps.push()
		nullable := true
		for _, part := range v.Parts {
			partNullable := ps.walk(part)
			pf, pl := ps.top()
			ps.pop()
			first, last := ps.top()
			ps.followWith(last, pf)
			if nullable {
				or(first, pf)
			}
			if !partNullable {
				clear(last)
			}
			or(last, pl)
			nullable = nullable && partNullable
		}
		return nullable
	case pathexpr.Alt:
		ps.push()
		nullable := false
		for _, alt := range v.Alts {
			altNullable := ps.walk(alt)
			af, al := ps.top()
			ps.pop()
			first, last := ps.top()
			or(first, af)
			or(last, al)
			nullable = nullable || altNullable
		}
		return nullable
	case pathexpr.Star:
		ps.walk(v.Inner)
		first, last := ps.top()
		ps.followWith(last, first)
		return true
	case pathexpr.Plus:
		nullable := ps.walk(v.Inner)
		first, last := ps.top()
		ps.followWith(last, first)
		return nullable
	default:
		panic(fmt.Sprintf("automata: unknown expression type %T", e))
	}
}

// or sets dst to dst ∪ src.
func or(dst, src []uint64) {
	for i, v := range src {
		dst[i] |= v
	}
}

// probe returns the slot of the open-addressed ID table slots (IDs stored
// plus one, 0 empty, length a power of two) that holds an ID eq accepts, or
// else the empty slot where such an ID belongs.  The hash only picks the
// first slot; eq decides equality exactly, and a nil eq accepts no ID.
func probe(slots []int32, h uint64, eq func(id int32) bool) int {
	mask := len(slots) - 1
	i := int(h) & mask
	for slots[i] != 0 && (eq == nil || !eq(slots[i]-1)) {
		i = (i + 1) & mask
	}
	return i
}

// tableSize returns a power-of-two table length of at least 2n.
func tableSize(n int) int {
	return 1 << bits.Len(uint(2*n-1))
}

// hashWords hashes one position set.
func hashWords(set []uint64) uint64 {
	h := pathexpr.MixInit
	for _, v := range set {
		h = pathexpr.Mix64(h, v)
	}
	return h
}

// CompileLimit is Compile with an explicit subset-construction state budget
// (limit <= 0 selects DefaultStateLimit).  It runs the subset construction
// over e's position automaton and returns a total DFA with a dense
// transition table.  State 0 is the start set {0}; the empty set interns
// like any other set and becomes the dead state on demand.  Interning a
// fresh state past limit returns ErrStateLimit.
func CompileLimit(e pathexpr.Expr, a *Alphabet, limit int) (*DFA, error) {
	if limit <= 0 {
		limit = DefaultStateLimit
	}
	ps := newPositions(e, a)
	k, w := a.Size(), ps.w
	// Expressions in practice compile to at most one state per position,
	// plus the start and the dead state; larger automata grow the slices.
	guess := ps.n + 1
	d := &DFA{
		alphabet: a,
		trans:    make([]int32, 0, guess*k),
		accept:   make([]bool, 0, guess),
	}
	// sets holds the interned position sets back to back; slots indexes
	// them.
	sets := make([]uint64, 0, guess*w)
	slots := make([]int32, tableSize(guess))
	scratch := make([]uint64, 2*w)
	union, next := scratch[:w], scratch[w:]

	intern := func(set []uint64) (int32, error) {
		i := probe(slots, hashWords(set), func(id int32) bool {
			return slices.Equal(sets[int(id)*w:int(id+1)*w], set)
		})
		if slots[i] != 0 {
			return slots[i] - 1, nil
		}
		id := len(sets) / w
		if id >= limit {
			return 0, ErrStateLimit{Limit: limit}
		}
		sets = append(sets, set...)
		slots[i] = int32(id + 1)
		if 2*(id+1) > len(slots) {
			slots = make([]int32, 2*len(slots))
			for r := 0; r <= id; r++ {
				set := sets[r*w : (r+1)*w]
				slots[probe(slots, hashWords(set), nil)] = int32(r + 1)
			}
		}
		return int32(id), nil
	}

	next[0] = 1 // the start set {0}
	if _, err := intern(next); err != nil {
		return nil, err
	}
	// sets grows as the loop interns successors; iterating by index is the
	// worklist.
	for s := 0; s < len(sets)/w; s++ {
		clear(union)
		acc := false
		for j, word := range sets[s*w : (s+1)*w] {
			acc = acc || word&ps.last[j] != 0
			for ; word != 0; word &= word - 1 {
				p := j*64 + bits.TrailingZeros64(word)
				or(union, ps.follow[p*w:(p+1)*w])
			}
		}
		d.accept = append(d.accept, acc)
		for c := 0; c < k; c++ {
			for j, m := range ps.symMask[c*w : (c+1)*w] {
				next[j] = union[j] & m
			}
			id, err := intern(next)
			if err != nil {
				return nil, err
			}
			d.trans = append(d.trans, id)
		}
	}
	return d, nil
}
