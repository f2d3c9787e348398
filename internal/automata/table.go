package automata

import (
	"slices"

	"repro/internal/pathexpr"
)

// This file holds the table-compiled backend: integer-keyed subset
// construction (Thompson NFA → dense []int32 DFA table) and integer
// partition refinement for minimization.  Neither path renders a string —
// NFA state sets are interned through hash buckets of int32 slices, and
// refinement rounds compare block-ID signatures directly instead of
// building per-state string keys.

// setInterner interns sorted NFA state sets to dense DFA state IDs.  The
// hash buckets hold set IDs; collisions fall back to slice comparison, so
// equal sets always map to one ID regardless of hash quality.
type setInterner struct {
	buckets map[uint64][]int32
	sets    [][]int32
}

func hashSet(set []int32) uint64 {
	h := pathexpr.MixInit
	for _, v := range set {
		h = pathexpr.Mix64(h, uint64(v)+1)
	}
	return h
}

// intern returns the DFA state ID for set, allocating a fresh ID (and a
// private copy of the set) on first sight.  A fresh intern past limit
// returns ErrStateLimit — this is the subset-construction state budget.
func (si *setInterner) intern(set []int32, limit int) (int32, error) {
	h := hashSet(set)
	for _, id := range si.buckets[h] {
		if slices.Equal(si.sets[id], set) {
			return id, nil
		}
	}
	if len(si.sets) >= limit {
		return 0, ErrStateLimit{Limit: limit}
	}
	id := int32(len(si.sets))
	si.sets = append(si.sets, slices.Clone(set))
	si.buckets[h] = append(si.buckets[h], id)
	return id, nil
}

// compileTable runs subset construction over the Thompson NFA n and returns
// a total DFA with a dense transition table.  DFA state 0 is the ε-closure
// of the NFA start state; the empty set interns like any other set and
// becomes the (total-automaton) dead state on demand.
func compileTable(n *nfa, limit int) (*DFA, error) {
	if limit <= 0 {
		limit = DefaultStateLimit
	}
	k := n.alphabet.Size()
	numNFA := len(n.eps)

	// Stamp-based ε-closure over a reusable visited buffer: no per-call map.
	visited := make([]int, numNFA)
	stamp := 0
	// out is the one closure buffer: every result is handed straight to
	// si.intern, which copies a set the first time it sees it.
	var stack, out []int32
	closure := func(states []int32) []int32 {
		stamp++
		stack = stack[:0]
		out = out[:0]
		for _, s := range states {
			if visited[s] != stamp {
				visited[s] = stamp
				stack = append(stack, s)
			}
		}
		for len(stack) > 0 {
			s := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			out = append(out, s)
			for _, t := range n.eps[s] {
				if visited[t] != stamp {
					visited[t] = stamp
					stack = append(stack, int32(t))
				}
			}
		}
		slices.Sort(out)
		return out
	}

	si := &setInterner{buckets: make(map[uint64][]int32)}
	if _, err := si.intern(closure([]int32{int32(n.start)}), limit); err != nil {
		return nil, err
	}

	d := &DFA{alphabet: n.alphabet}
	var scratch []int32
	// si.sets grows as the loop interns successors; iterating by index is
	// the worklist.
	for i := 0; i < len(si.sets); i++ {
		set := si.sets[i]
		acc := false
		for _, s := range set {
			if int(s) == n.accept {
				acc = true
				break
			}
		}
		d.accept = append(d.accept, acc)
		base := len(d.trans)
		d.trans = append(d.trans, make([]int32, k)...)
		for c := 0; c < k; c++ {
			scratch = scratch[:0]
			for _, s := range set {
				if n.sym[s] == int32(c) {
					scratch = append(scratch, n.to[s])
				}
			}
			id, err := si.intern(closure(scratch), limit)
			if err != nil {
				return nil, err
			}
			d.trans[base+c] = id
		}
	}
	return d, nil
}

// minimizeTable is Moore-style partition refinement over the dense table.
// Block IDs are (re)assigned in first-seen state order every round, which
// keeps the result deterministic and pins the start state's block to 0
// (state 0 is always seen first).  States with equal signatures —
// part[s] == part[r] and ∀c part[trans[s*k+c]] == part[trans[r*k+c]] — land
// in one block; hash buckets only narrow the candidates, the signature
// comparison is exact.
func minimizeTable(d *DFA) *DFA {
	k := d.alphabet.Size()
	n := len(d.accept)
	if n <= 1 {
		return d
	}

	part := make([]int32, n)
	blockOf := [2]int32{-1, -1} // [non-accepting, accepting] → initial block
	count := int32(0)
	for s := 0; s < n; s++ {
		idx := 0
		if d.accept[s] {
			idx = 1
		}
		if blockOf[idx] < 0 {
			blockOf[idx] = count
			count++
		}
		part[s] = blockOf[idx]
	}

	newPart := make([]int32, n)
	sigEqual := func(s, r int) bool {
		if part[s] != part[r] {
			return false
		}
		for c := 0; c < k; c++ {
			if part[d.trans[s*k+c]] != part[d.trans[r*k+c]] {
				return false
			}
		}
		return true
	}
	for {
		buckets := make(map[uint64][]int32, int(count))
		next := int32(0)
		for s := 0; s < n; s++ {
			h := pathexpr.Mix64(pathexpr.MixInit, uint64(part[s]))
			for c := 0; c < k; c++ {
				h = pathexpr.Mix64(h, uint64(part[d.trans[s*k+c]]))
			}
			assigned := false
			for _, r := range buckets[h] {
				if sigEqual(s, int(r)) {
					newPart[s] = newPart[r]
					assigned = true
					break
				}
			}
			if !assigned {
				newPart[s] = next
				next++
				buckets[h] = append(buckets[h], int32(s))
			}
		}
		part, newPart = newPart, part
		if next == count {
			break
		}
		count = next
	}

	m := int(count)
	out := &DFA{
		alphabet: d.alphabet,
		trans:    make([]int32, m*k),
		accept:   make([]bool, m),
	}
	seen := make([]bool, m)
	for s := 0; s < n; s++ {
		b := part[s]
		if seen[b] {
			continue
		}
		seen[b] = true
		out.accept[b] = d.accept[s]
		for c := 0; c < k; c++ {
			out.trans[int(b)*k+c] = part[d.trans[s*k+c]]
		}
	}
	return out
}
