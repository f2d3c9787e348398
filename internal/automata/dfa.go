package automata

import (
	"fmt"
	"math"
	"sync/atomic"

	"repro/internal/pathexpr"
)

// DFA is a deterministic finite automaton over an Alphabet.  DFAs produced
// by this package are always total: every state has a transition on every
// symbol (a dead state absorbs failures).  State 0 is the start state.
//
// The transition function is a dense int32 table (trans[s*k+c] with
// k = alphabet.Size()), the representation the decision path walks and the
// artifact format persists verbatim.  A DFA is frozen once built: no method
// mutates trans or accept after construction, which is what makes it safe
// to share trans with a loaded artifact (see Preseed) and to share one *DFA
// across every prover in a process.
type DFA struct {
	alphabet *Alphabet
	// trans[s*k+c] is the successor of state s on symbol c.
	trans  []int32
	accept []bool

	// card memoizes Cardinality.  The DFA is frozen, so its language class
	// is a constant, computed on first use — the prover's prefix check
	// (case C) asks for it on every attempt, across every search sharing
	// the automaton.
	card atomic.Pointer[cardinality]
}

// cardinality is a memoized Cardinality answer.
type cardinality struct {
	class Cardinality
	word  []string
}

// ErrStateLimit is returned by Compile — and by the budgeted product
// constructions — when the state count exceeds the configured budget.  The
// prover treats it as "unable to decide", which degrades an answer towards
// Maybe — never towards an unsound No.
type ErrStateLimit struct {
	Limit int
}

func (e ErrStateLimit) Error() string {
	return fmt.Sprintf("automata: DFA exceeds state limit %d", e.Limit)
}

// DefaultStateLimit bounds subset construction and product construction.
// Path expressions in practice are tiny (the paper: n on the order of ten),
// so this is far above anything a realistic proof needs.
const DefaultStateLimit = 1 << 14

// Compile builds a total DFA recognizing e over the given alphabet, via
// Thompson construction and subset construction.  Fields of e not in the
// alphabet yield the empty language contribution (see buildNFA).
func Compile(e pathexpr.Expr, a *Alphabet) (*DFA, error) {
	return CompileLimit(e, a, DefaultStateLimit)
}

// CompileLimit is Compile with an explicit subset-construction state budget.
// The construction is fully integer-keyed (see table.go): NFA state sets
// are interned through a hash table of int32 slices, never rendered to
// strings.
func CompileLimit(e pathexpr.Expr, a *Alphabet, limit int) (*DFA, error) {
	n := newNFA(a)
	start, accept := n.build(e)
	n.start, n.accept = start, accept
	return compileTable(n, limit)
}

// MustCompile is Compile, panicking on error.
func MustCompile(e pathexpr.Expr, a *Alphabet) *DFA {
	d, err := Compile(e, a)
	if err != nil {
		panic(err)
	}
	return d
}

// Alphabet returns the DFA's alphabet.
func (d *DFA) Alphabet() *Alphabet { return d.alphabet }

// NumStates returns the number of DFA states.
func (d *DFA) NumStates() int { return len(d.accept) }

// Step returns the successor of state s on symbol name, or -1 if the symbol
// is not in the alphabet.
func (d *DFA) Step(s int, name string) int {
	c := d.alphabet.Index(name)
	if c < 0 {
		return -1
	}
	return int(d.trans[s*d.alphabet.Size()+c])
}

// Accepting reports whether state s accepts.
func (d *DFA) Accepting(s int) bool { return d.accept[s] }

// Accepts reports whether the DFA accepts the word (a sequence of field
// names).  Words containing symbols outside the alphabet are rejected.
func (d *DFA) Accepts(word []string) bool {
	s := 0
	for _, f := range word {
		s = d.Step(s, f)
		if s < 0 {
			return false
		}
	}
	return d.accept[s]
}

// Complement returns a DFA for the complement language over the same
// alphabet.  The receiver must be total, which Compile guarantees.
//
// The transition table is copied, not aliased: the receiver's table may be
// shared with a loaded artifact, and two automata silently sharing a
// backing slice is a correctness hazard the moment any caller stops
// treating DFAs as frozen.
// An aliasing regression is caught by TestComplementDoesNotAliasTables.
func (d *DFA) Complement() *DFA {
	acc := make([]bool, len(d.accept))
	for i, a := range d.accept {
		acc[i] = !a
	}
	trans := make([]int32, len(d.trans))
	copy(trans, d.trans)
	return &DFA{alphabet: d.alphabet, trans: trans, accept: acc}
}

// product runs the budgeted product construction over d and o, accepting
// product states (a, b) for which acceptPair(d.accept[a], o.accept[b]) is
// true.  Intersection and difference (the inclusion check's L(d) ∩ ¬L(o))
// are the two instantiations.  Exceeding limit returns ErrStateLimit: two
// automata near the compile budget can otherwise intern up to limit² product
// states, which is an OOM, not a proof.
func (d *DFA) product(o *DFA, limit int, acceptPair func(a, b bool) bool) (*DFA, error) {
	if d.alphabet.Key() != o.alphabet.Key() {
		panic("automata: product over mismatched alphabets")
	}
	if limit <= 0 {
		limit = DefaultStateLimit
	}
	k := d.alphabet.Size()
	// Product states are pairs (a, b) of component states, encoded into one
	// uint64 key; order is interning order with (0, 0) first.
	id := make(map[uint64]int32)
	var order []uint64
	intern := func(a, b int32) (int32, error) {
		key := uint64(uint32(a))<<32 | uint64(uint32(b))
		if n, ok := id[key]; ok {
			return n, nil
		}
		if len(order) >= limit {
			return 0, ErrStateLimit{Limit: limit}
		}
		n := int32(len(order))
		id[key] = n
		order = append(order, key)
		return n, nil
	}
	if _, err := intern(0, 0); err != nil {
		return nil, err
	}
	out := &DFA{alphabet: d.alphabet}
	for i := 0; i < len(order); i++ {
		a := int32(order[i] >> 32)
		b := int32(uint32(order[i]))
		out.accept = append(out.accept, acceptPair(d.accept[a], o.accept[b]))
		base := len(out.trans)
		out.trans = append(out.trans, make([]int32, k)...)
		for c := 0; c < k; c++ {
			n, err := intern(d.trans[int(a)*k+c], o.trans[int(b)*k+c])
			if err != nil {
				return nil, err
			}
			out.trans[base+c] = n
		}
	}
	return out, nil
}

// IntersectLimit returns the product DFA recognizing L(d) ∩ L(o), or
// ErrStateLimit when the product exceeds the given state budget (limit <= 0
// selects DefaultStateLimit).  Both automata must share the alphabet (same
// Key); otherwise it panics, since a silent mismatch would make prover
// answers meaningless.
func (d *DFA) IntersectLimit(o *DFA, limit int) (*DFA, error) {
	return d.product(o, limit, func(a, b bool) bool { return a && b })
}

// Intersect is IntersectLimit at DefaultStateLimit, panicking when even the
// default budget is exceeded.  Budget-aware callers (the caches, and through
// them the prover) use IntersectLimit and degrade toward Maybe instead.
func (d *DFA) Intersect(o *DFA) *DFA {
	out, err := d.IntersectLimit(o, DefaultStateLimit)
	if err != nil {
		panic(err)
	}
	return out
}

// IsEmpty reports whether the DFA's language is empty.
func (d *DFA) IsEmpty() bool {
	return d.shortestAccepted() == nil && !d.accept[0]
}

// Witness returns a shortest accepted word, or nil and false when the
// language is empty.
func (d *DFA) Witness() ([]string, bool) {
	if d.accept[0] {
		return []string{}, true
	}
	w := d.shortestAccepted()
	if w == nil {
		return nil, false
	}
	return w, true
}

// shortestAccepted performs BFS from the start state and returns a shortest
// accepted word, or nil when no accepting state is reachable (ignores the
// start state's own acceptance).
func (d *DFA) shortestAccepted() []string {
	k := d.alphabet.Size()
	type edge struct {
		prev int32
		sym  int32
	}
	seen := make([]bool, len(d.accept))
	from := make([]edge, len(d.accept))
	queue := []int32{0}
	seen[0] = true
	goal := int32(-1)
	for len(queue) > 0 && goal < 0 {
		s := queue[0]
		queue = queue[1:]
		for c := 0; c < k; c++ {
			t := d.trans[int(s)*k+c]
			if seen[t] {
				continue
			}
			seen[t] = true
			from[t] = edge{prev: s, sym: int32(c)}
			if d.accept[t] {
				goal = t
				break
			}
			queue = append(queue, t)
		}
	}
	if goal < 0 {
		return nil
	}
	var rev []string
	for s := goal; s != 0; s = from[s].prev {
		rev = append(rev, d.alphabet.symbols[from[s].sym])
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

// IncludesLimit reports whether L(d) ⊆ L(o), deciding L(d) ∩ ¬L(o) = ∅ as
// the paper prescribes, under the given product-state budget.  The
// difference automaton is built directly by the product construction — no
// materialized complement, no intermediate table copy.
func (d *DFA) IncludesLimit(o *DFA, limit int) (bool, error) {
	diff, err := d.product(o, limit, func(a, b bool) bool { return a && !b })
	if err != nil {
		return false, err
	}
	return diff.IsEmpty(), nil
}

// Includes is IncludesLimit at DefaultStateLimit, panicking on budget
// exhaustion (see Intersect).
func (d *DFA) Includes(o *DFA) bool {
	ok, err := d.IncludesLimit(o, DefaultStateLimit)
	if err != nil {
		panic(err)
	}
	return ok
}

// EquivalentLimit reports whether the two DFAs recognize the same language,
// under the given product-state budget.
func (d *DFA) EquivalentLimit(o *DFA, limit int) (bool, error) {
	ok, err := d.IncludesLimit(o, limit)
	if err != nil || !ok {
		return false, err
	}
	return o.IncludesLimit(d, limit)
}

// Equivalent is EquivalentLimit at DefaultStateLimit, panicking on budget
// exhaustion (see Intersect).
func (d *DFA) Equivalent(o *DFA) bool {
	ok, err := d.EquivalentLimit(o, DefaultStateLimit)
	if err != nil {
		panic(err)
	}
	return ok
}

// Cardinality classifies the size of the language.
type Cardinality int

// Language cardinality classes.
const (
	CardEmpty    Cardinality = iota // no words
	CardOne                         // exactly one word
	CardFinite                      // more than one word, finitely many
	CardInfinite                    // infinitely many words
)

func (c Cardinality) String() string {
	switch c {
	case CardEmpty:
		return "empty"
	case CardOne:
		return "one"
	case CardFinite:
		return "finite"
	case CardInfinite:
		return "infinite"
	}
	return "unknown"
}

// Cardinality returns the language-size class and, when the class is
// CardOne, the unique word.  The result is memoized on the DFA and safe to
// ask for concurrently (racing first calls compute the same answer and
// either store wins); the returned word is shared and must not be
// modified.
func (d *DFA) Cardinality() (Cardinality, []string) {
	c := d.card.Load()
	if c == nil {
		c = new(cardinality)
		c.class, c.word = d.computeCardinality()
		d.card.Store(c)
	}
	return c.class, c.word
}

// computeCardinality computes Cardinality's answer.
func (d *DFA) computeCardinality() (Cardinality, []string) {
	k := d.alphabet.Size()
	useful := d.usefulStates()
	if !useful[0] {
		return CardEmpty, nil
	}
	// Detect a cycle among useful states: any cycle implies infinitely many
	// words (every useful state lies on a path from start to accept).
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := make([]int, len(d.accept))
	var cyclic bool
	var dfs func(s int)
	dfs = func(s int) {
		color[s] = gray
		for c := 0; c < k; c++ {
			t := int(d.trans[s*k+c])
			if !useful[t] {
				continue
			}
			switch color[t] {
			case gray:
				cyclic = true
			case white:
				dfs(t)
			}
		}
		color[s] = black
	}
	dfs(0)
	if cyclic {
		return CardInfinite, nil
	}
	// Acyclic: count accepted words by memoized DAG counting, capped at 2.
	counts := make([]int, len(d.accept))
	for i := range counts {
		counts[i] = -1
	}
	var count func(s int) int
	count = func(s int) int {
		if counts[s] >= 0 {
			return counts[s]
		}
		n := 0
		if d.accept[s] {
			n = 1
		}
		for c := 0; c < k; c++ {
			t := int(d.trans[s*k+c])
			if useful[t] {
				n += count(t)
			}
			if n > 2 {
				n = 3
				break
			}
		}
		counts[s] = n
		return n
	}
	switch n := count(0); {
	case n == 0:
		return CardEmpty, nil
	case n == 1:
		w, _ := d.uniqueWord(useful)
		return CardOne, w
	default:
		return CardFinite, nil
	}
}

// uniqueWord extracts the single accepted word from a DFA already known to
// accept exactly one word.
func (d *DFA) uniqueWord(useful []bool) ([]string, bool) {
	k := d.alphabet.Size()
	var word []string
	s := 0
	for steps := 0; steps <= len(d.accept)*k+1; steps++ {
		if d.accept[s] {
			// The unique word ends here unless a useful continuation exists;
			// with exactly one word there cannot be both.
			hasNext := false
			for c := 0; c < k; c++ {
				if useful[d.trans[s*k+c]] {
					hasNext = true
				}
			}
			if !hasNext {
				return word, true
			}
		}
		advanced := false
		for c := 0; c < k; c++ {
			t := int(d.trans[s*k+c])
			if useful[t] {
				word = append(word, d.alphabet.symbols[c])
				s = t
				advanced = true
				break
			}
		}
		if !advanced {
			return word, d.accept[s]
		}
	}
	return nil, false
}

// usefulStates marks states that are both reachable from the start state and
// can reach an accepting state.
func (d *DFA) usefulStates() []bool {
	k := d.alphabet.Size()
	n := len(d.accept)
	reach := make([]bool, n)
	stack := []int32{0}
	reach[0] = true
	for len(stack) > 0 {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for c := 0; c < k; c++ {
			t := d.trans[int(s)*k+c]
			if !reach[t] {
				reach[t] = true
				stack = append(stack, t)
			}
		}
	}
	// Reverse reachability from accepting states.
	rev := make([][]int32, n)
	for s := 0; s < n; s++ {
		for c := 0; c < k; c++ {
			t := d.trans[s*k+c]
			rev[t] = append(rev[t], int32(s))
		}
	}
	coreach := make([]bool, n)
	for s := 0; s < n; s++ {
		if d.accept[s] && !coreach[s] {
			coreach[s] = true
			stack = append(stack, int32(s))
		}
	}
	for len(stack) > 0 {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, p := range rev[s] {
			if !coreach[p] {
				coreach[p] = true
				stack = append(stack, p)
			}
		}
	}
	useful := make([]bool, n)
	for s := 0; s < n; s++ {
		useful[s] = reach[s] && coreach[s]
	}
	return useful
}

// Minimize returns the minimal DFA equivalent to d, via the integer
// partition refinement in table.go (no per-state string signatures).
func (d *DFA) Minimize() *DFA {
	return minimizeTable(d)
}

// MaxWordLen returns the length of the longest accepted word, or
// math.MaxInt for infinite languages, or -1 for the empty language.
func (d *DFA) MaxWordLen() int {
	card, _ := d.Cardinality()
	switch card {
	case CardEmpty:
		return -1
	case CardInfinite:
		return math.MaxInt
	}
	// Longest path in the useful-state DAG.
	k := d.alphabet.Size()
	useful := d.usefulStates()
	memo := make([]int, len(d.accept))
	for i := range memo {
		memo[i] = -2
	}
	var longest func(s int) int
	longest = func(s int) int {
		if memo[s] != -2 {
			return memo[s]
		}
		best := -1
		if d.accept[s] {
			best = 0
		}
		memo[s] = best // provisional; DAG so no revisits on a cycle
		for c := 0; c < k; c++ {
			t := int(d.trans[s*k+c])
			if !useful[t] {
				continue
			}
			if l := longest(t); l >= 0 && l+1 > best {
				best = l + 1
			}
		}
		memo[s] = best
		return best
	}
	return longest(0)
}
