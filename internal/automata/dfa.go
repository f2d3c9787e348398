package automata

import (
	"fmt"

	"repro/internal/pathexpr"
)

// DFA is a deterministic finite automaton over an Alphabet.  DFAs produced
// by this package are always total: every state has a transition on every
// symbol (a dead state absorbs failures).  State 0 is the start state.
//
// The transition function is a dense int32 table (trans[s*k+c] with
// k = alphabet.Size()), the representation the decision path walks.  A DFA
// is frozen once built: no method mutates trans or accept after
// construction, which is what makes it safe to share one *DFA across every
// prover in a process.
type DFA struct {
	alphabet *Alphabet
	// trans[s*k+c] is the successor of state s on symbol c.
	trans  []int32
	accept []bool
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

// Compile builds a total DFA recognizing e over the given alphabet, by the
// subset construction over e's position automaton (see table.go).  Fields
// of e not in the alphabet denote the empty language.
func Compile(e pathexpr.Expr, a *Alphabet) (*DFA, error) {
	return CompileLimit(e, a, DefaultStateLimit)
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

// pairRule is a truth table over a product state's component acceptance:
// rule[2*a+b] says whether the pair accepts when d's state accepts (a) and
// o's state accepts (b).  The three language decisions are its three
// instantiations.
type pairRule [4]bool

var (
	ruleBoth = pairRule{3: true}          // a && b: intersection, disjointness
	ruleDiff = pairRule{2: true}          // a && !b: the inclusion check's L(d) ∩ ¬L(o)
	ruleXor  = pairRule{1: true, 2: true} // a != b: symmetric difference, equivalence
)

// at looks up the rule for one pair of component acceptances.
func (r pairRule) at(a, b bool) bool {
	i := 0
	if a {
		i = 2
	}
	if b {
		i++
	}
	return r[i]
}

// product runs the budgeted product construction over d and o, accepting
// the product states (a, b) the rule accepts.  Exceeding limit returns
// ErrStateLimit: two automata near the compile budget can otherwise intern up
// to limit² product states, which is an OOM, not a proof.  Only callers that
// need the automaton itself (a witness word) build it; the boolean decisions
// explore the same product on the fly (productEmpty).
func (d *DFA) product(o *DFA, limit int, rule pairRule) (*DFA, error) {
	if d.alphabet.ID() != o.alphabet.ID() {
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
		out.accept = append(out.accept, rule.at(d.accept[a], o.accept[b]))
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

// pairSet is the visited set of productEmpty's search: a bitset over all
// |d|·|o| pairs when that fits in 64·limit bits (so at most limit words),
// a uint64-keyed set otherwise.  Either way its memory is O(limit).
type pairSet struct {
	bits  []uint64 // pair (a, b) is bit a*width+b
	width int
	keys  map[uint64]struct{} // non-nil selects the key set
}

func newPairSet(nd, no, limit int) pairSet {
	if n := nd * no; n <= 64*limit {
		return pairSet{bits: make([]uint64, (n+63)/64), width: no}
	}
	return pairSet{keys: make(map[uint64]struct{})}
}

// add marks (a, b) visited and reports whether it was new.
func (s *pairSet) add(a, b int32) bool {
	if s.keys != nil {
		return s.addKey(a, b)
	}
	i := int(a)*s.width + int(b)
	w, bit := i>>6, uint64(1)<<(i&63)
	fresh := s.bits[w]&bit == 0
	s.bits[w] |= bit
	return fresh
}

func (s *pairSet) addKey(a, b int32) bool {
	key := uint64(uint32(a))<<32 | uint64(uint32(b))
	if _, ok := s.keys[key]; ok {
		return false
	}
	s.keys[key] = struct{}{}
	return true
}

// productEmpty reports whether no reachable state of the product d × o is
// accepted by the rule, without building the product: a breadth-first
// search over reachable state pairs with a visited set and an int32 pair
// queue, and no transition table, no pair-to-ID map and no witness word.
//
// It has no early exit.  The search visits the whole reachable product and
// counts distinct pairs against limit exactly as product interns them, so
// the answer and the ErrStateLimit cases are product's followed by IsEmpty.
func (d *DFA) productEmpty(o *DFA, limit int, rule pairRule) (bool, error) {
	if d.alphabet.ID() != o.alphabet.ID() {
		panic("automata: product over mismatched alphabets")
	}
	if limit <= 0 {
		limit = DefaultStateLimit
	}
	k := d.alphabet.Size()
	nd, no := len(d.accept), len(o.accept)
	seen := newPairSet(nd, no, limit)
	// The queue holds (a, b) pairs flattened; it is never dequeued, so its
	// length is twice the number of pairs visited.  Its first capacity is
	// capped: a large product whose reachable part is small should not
	// allocate a limit-sized queue up front.
	queue := make([]int32, 0, 2*min(nd*no, limit, 1024))
	seen.add(0, 0)
	queue = append(queue, 0, 0)
	found := false
	for i := 0; i < len(queue); i += 2 {
		a, b := queue[i], queue[i+1]
		found = found || rule.at(d.accept[a], o.accept[b])
		for c := 0; c < k; c++ {
			ta, tb := d.trans[int(a)*k+c], o.trans[int(b)*k+c]
			if !seen.add(ta, tb) {
				continue
			}
			if len(queue)/2 >= limit {
				return false, ErrStateLimit{Limit: limit}
			}
			queue = append(queue, ta, tb)
		}
	}
	return !found, nil
}

// IntersectLimit returns the product DFA recognizing L(d) ∩ L(o), or
// ErrStateLimit when the product exceeds the given state budget (limit <= 0
// selects DefaultStateLimit).  Both automata must share the alphabet (same
// Key); otherwise it panics, since a silent mismatch would make prover
// answers meaningless.
func (d *DFA) IntersectLimit(o *DFA, limit int) (*DFA, error) {
	return d.product(o, limit, ruleBoth)
}

// Intersect is IntersectLimit at DefaultStateLimit, panicking when even the
// default budget is exceeded.  Budget-aware callers use IntersectLimit, or
// SharedCache.Disjoint when they only need the bool, and degrade toward
// Maybe instead.
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
// difference product is explored on the fly (productEmpty): no materialized
// complement and no product automaton.
func (d *DFA) IncludesLimit(o *DFA, limit int) (bool, error) {
	return d.productEmpty(o, limit, ruleDiff)
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
// under the given product-state budget: one pass over the product looking
// for a pair that only one side accepts.  The reachable pairs of d × o are
// the transpose of those of o × d, so the budget is the one each inclusion
// direction would spend.
func (d *DFA) EquivalentLimit(o *DFA, limit int) (bool, error) {
	return d.productEmpty(o, limit, ruleXor)
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
