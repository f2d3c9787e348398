package pathexpr

import (
	"sync"
	"sync/atomic"
)

// This file implements hash-consing for path expressions: a concurrency-safe
// interner that maps every expression to a unique *Node, so that structural
// equality — which every cache in the stack (the DFA compilation cache, the
// language-decision memo, the cross-query proof memo) previously decided by
// re-rendering expressions to strings on each lookup — becomes pointer/ID
// equality, and
// the canonical string is computed exactly once per distinct expression.
//
// The identity invariant is deliberately the same one the string keys
// enforced:
//
//	Intern(a) == Intern(b)  ⇔  a.String() == b.String()
//
// so switching a cache from string keys to node IDs preserves its equality
// classes byte-for-byte.  Two lookup structures maintain the invariant:
//
//   - byStruct: a structural-hash index (hash of the expression tree, no
//     strings touched).  Warm lookups — the cache hot path — run entirely
//     through it: one map probe plus an allocation-free tree comparison.
//   - byString: the canonical-string index.  A structure seen for the first
//     time renders its string once; if another structure already owns that
//     string (String conflates flat and nested associations of the same
//     concatenation or alternation), the new structure is aliased to the
//     existing node so both intern to one identity.
//
// Node IDs are stable for the lifetime of the interner (never reused, never
// invalidated), which is what lets downstream caches use them as map keys
// with no lifetime protocol beyond "same process".

// Node is an interned path expression: a unique representative of every
// expression sharing one canonical rendering.  Nodes are created only by an
// Interner and are immutable; comparing two nodes with == decides structural
// equality of the underlying expressions.
type Node struct {
	expr Expr
	str  string
	id   uint64
	size int
	in   *Interner
	// simp caches the interned post-Simplify normal form, computed lazily on
	// first use (see Simplified).
	simp atomic.Pointer[Node]
	// compact caches Compact(expr), computed lazily on first use.
	compact atomic.Pointer[string]
	// words caches the node's word facts (see Word and Singleton),
	// computed lazily on first use.
	words atomic.Pointer[wordFacts]
}

// wordFacts are a node's two word facts: whether its expression is a
// syntactic word (see Word), and the size class of its language with the
// one word when there is exactly one — the syntactic word, if any.
type wordFacts struct {
	isWord bool
	count  Count
	single []string
}

// ID returns the node's stable 64-bit identity.  IDs start at 1 and are
// never reused; 0 is free for callers to use as "no expression".
func (n *Node) ID() uint64 { return n.id }

// Expr returns the underlying expression (the first structure interned with
// this canonical string).
func (n *Node) Expr() Expr { return n.expr }

// String returns the canonical rendering, computed once at intern time.
func (n *Node) String() string { return n.str }

// Size returns the structural size of the expression (see Expr.Size),
// computed once at intern time.
func (n *Node) Size() int { return n.size }

// Simplified returns the interned post-Simplify normal form of the node's
// expression.  The result is cached on the node, so steady-state callers
// (the engine's canonical goal keys) pay one atomic load — no Simplify
// walk, no rendering, no allocation.
func (n *Node) Simplified() *Node {
	if s := n.simp.Load(); s != nil {
		return s
	}
	s := n.in.Intern(Simplify(n.expr))
	// Mark a fixpoint as its own normal form so chains of Simplified calls
	// terminate in one hop (Simplify is idempotent; see TestSimplifyIdempotent).
	if s != n {
		s.simp.CompareAndSwap(nil, s)
	}
	n.simp.Store(s)
	return s
}

// Compact returns the paper-style rendering of the node's expression (see
// the package-level Compact), computed once and cached on the node: a
// proof's theorem is rendered from its root goal's nodes on every search.
func (n *Node) Compact() string {
	if s := n.compact.Load(); s != nil {
		return *s
	}
	s := Compact(n.expr)
	n.compact.Store(&s)
	return s
}

// Word returns Word(n.Expr()), computed once and cached on the node.  The
// returned slice is shared and must not be modified.
func (n *Node) Word() ([]string, bool) {
	if f := n.wordFacts(); f.isWord {
		return f.single, true
	}
	return nil, false
}

// Singleton returns the size class of the node's language and, when it is
// OneWord, that word: the language-level counterpart of Word, which also
// sees the one word of (a|a), a.(ε)*, b.ε+ and the like.  Computed once and
// cached on the node; the returned slice is shared and must not be
// modified.
func (n *Node) Singleton() (Count, []string) {
	f := n.wordFacts()
	return f.count, f.single
}

func (n *Node) wordFacts() *wordFacts {
	if f := n.words.Load(); f != nil {
		return f
	}
	f := &wordFacts{}
	if f.single, f.isWord = Word(n.expr); f.isWord {
		f.count = OneWord
	} else {
		f.count, f.single = Singleton(n.expr)
	}
	n.words.Store(f)
	return f
}

// structEntry pairs one concrete structure with the node it interns to.  A
// structural-hash bucket may carry several entries: genuinely distinct
// expressions that collide in the hash, and distinct structures aliased to
// one node because they render identically.
type structEntry struct {
	expr Expr
	node *Node
}

// Interner is a concurrency-safe hash-consing table for path expressions.
// The zero value is not usable; call NewInterner, or use the package-level
// Intern/InternID helpers, which share the process-wide default interner
// (sharing one table is what makes node identity meaningful across the
// automata, prover, engine, and serving layers).
type Interner struct {
	mu       sync.RWMutex
	byStruct map[uint64][]structEntry
	byString map[string]*Node
	next     uint64
}

// NewInterner returns an empty interner.
func NewInterner() *Interner {
	return &Interner{
		byStruct: make(map[uint64][]structEntry),
		byString: make(map[string]*Node),
	}
}

// defaultInterner is the process-wide table behind Intern/InternID.
var defaultInterner = NewInterner()

// Intern interns e in the process-wide default interner.
func Intern(e Expr) *Node { return defaultInterner.Intern(e) }

// InternID returns Intern(e).ID().
func InternID(e Expr) uint64 { return defaultInterner.Intern(e).id }

// InternedExprs reports the number of distinct expressions (by canonical
// string) held by the process-wide interner.  Long-lived servers export it:
// the interner grows with distinct expressions seen and is never evicted
// (IDs must stay stable), so this is the number to watch.
func InternedExprs() int { return defaultInterner.Len() }

// Intern returns the unique node for e.  A nil expression interns as ε,
// matching Simplify's treatment of nil.  The warm path (a structure interned
// before) takes a shared lock, one hash-bucket probe, and a tree comparison —
// no allocation, no string rendering.
func (in *Interner) Intern(e Expr) *Node {
	if e == nil {
		e = Eps
	}
	h := hashExpr(fnvOffset64, e)
	in.mu.RLock()
	for _, ent := range in.byStruct[h] {
		if structEq(ent.expr, e) {
			n := ent.node
			in.mu.RUnlock()
			return n
		}
	}
	in.mu.RUnlock()
	return in.internSlow(e, h)
}

func (in *Interner) internSlow(e Expr, h uint64) *Node {
	s := e.String()
	in.mu.Lock()
	defer in.mu.Unlock()
	// Re-check under the write lock: a racing goroutine may have interned
	// the same structure between our read unlock and here.
	for _, ent := range in.byStruct[h] {
		if structEq(ent.expr, e) {
			return ent.node
		}
	}
	n, ok := in.byString[s]
	if !ok {
		in.next++
		n = &Node{expr: e, str: s, id: in.next, size: e.Size(), in: in}
		in.byString[s] = n
	}
	in.byStruct[h] = append(in.byStruct[h], structEntry{expr: e, node: n})
	return n
}

// Len reports the number of distinct interned expressions (unique canonical
// strings, i.e. unique nodes).
func (in *Interner) Len() int {
	in.mu.RLock()
	defer in.mu.RUnlock()
	return len(in.byString)
}

// FNV-1a 64-bit parameters, shared by the structural hash and the
// integer-key mixers downstream caches build shard indices from.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// Kind tags feeding the structural hash.  Composite tags also mix in the
// child count so [a b]·c and [a]·[b c] (as raw slices) cannot collide by
// concatenating child streams.
const (
	hkEmpty = iota + 1
	hkEpsilon
	hkField
	hkConcat
	hkAlt
	hkStar
	hkPlus
)

// hashExpr folds e's structure into h (FNV-1a style).  Allocation-free.
func hashExpr(h uint64, e Expr) uint64 {
	switch v := e.(type) {
	case Empty:
		h = (h ^ hkEmpty) * fnvPrime64
	case Epsilon:
		h = (h ^ hkEpsilon) * fnvPrime64
	case Field:
		h = (h ^ hkField) * fnvPrime64
		for i := 0; i < len(v.Name); i++ {
			h = (h ^ uint64(v.Name[i])) * fnvPrime64
		}
		h = (h ^ 0xff) * fnvPrime64 // name terminator
	case Concat:
		h = (h ^ hkConcat) * fnvPrime64
		h = (h ^ uint64(len(v.Parts))) * fnvPrime64
		for _, p := range v.Parts {
			h = hashExpr(h, p)
		}
	case Alt:
		h = (h ^ hkAlt) * fnvPrime64
		h = (h ^ uint64(len(v.Alts))) * fnvPrime64
		for _, p := range v.Alts {
			h = hashExpr(h, p)
		}
	case Star:
		h = (h ^ hkStar) * fnvPrime64
		h = hashExpr(h, v.Inner)
	case Plus:
		h = (h ^ hkPlus) * fnvPrime64
		h = hashExpr(h, v.Inner)
	}
	return h
}

// structEq reports structural (tree) equality of a and b.  Allocation-free.
func structEq(a, b Expr) bool {
	switch va := a.(type) {
	case Empty:
		_, ok := b.(Empty)
		return ok
	case Epsilon:
		_, ok := b.(Epsilon)
		return ok
	case Field:
		vb, ok := b.(Field)
		return ok && va.Name == vb.Name
	case Concat:
		vb, ok := b.(Concat)
		if !ok || len(va.Parts) != len(vb.Parts) {
			return false
		}
		for i := range va.Parts {
			if !structEq(va.Parts[i], vb.Parts[i]) {
				return false
			}
		}
		return true
	case Alt:
		vb, ok := b.(Alt)
		if !ok || len(va.Alts) != len(vb.Alts) {
			return false
		}
		for i := range va.Alts {
			if !structEq(va.Alts[i], vb.Alts[i]) {
				return false
			}
		}
		return true
	case Star:
		vb, ok := b.(Star)
		return ok && structEq(va.Inner, vb.Inner)
	case Plus:
		vb, ok := b.(Plus)
		return ok && structEq(va.Inner, vb.Inner)
	}
	return false
}

// Mix64 folds v into the running hash h (FNV-1a over the value's bytes,
// collapsed to one multiply).  The sharded caches (the proof memo, the DFA
// cache) build their shard indices from interned-ID keys with it, without
// rendering strings; one implementation keeps their routing aligned.
func Mix64(h, v uint64) uint64 {
	return (h ^ v) * fnvPrime64
}

// MixInit is the seed for Mix64 chains.
const MixInit uint64 = fnvOffset64
