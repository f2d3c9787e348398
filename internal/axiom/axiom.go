// Package axiom defines aliasing axioms: universally quantified statements
// about access paths that hold uniformly throughout a data structure
// (paper, §3.1).  An axiom takes one of three forms:
//
//  1. ∀p,    p.RE1 <> p.RE2   — paths from the same vertex never collide
//  2. ∀p<>q, p.RE1 <> q.RE2   — paths from distinct vertices never collide
//  3. ∀p,    p.RE1 =  p.RE2   — paths from the same vertex always coincide
//
// The package also carries the paper's worked axiom sets (Figure 3's
// leaf-linked binary tree, §5's sparse-matrix subset, Appendix A's full
// twelve-axiom sparse matrix) and axiom inference from type declarations.
package axiom

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/pathexpr"
	"repro/internal/strhash"
)

// Form distinguishes the three axiom shapes.
type Form int

// Axiom forms.
const (
	// SameSrcDisjoint is ∀p, p.RE1 <> p.RE2.
	SameSrcDisjoint Form = iota
	// DiffSrcDisjoint is ∀p<>q, p.RE1 <> q.RE2.
	DiffSrcDisjoint
	// SameSrcEqual is ∀p, p.RE1 = p.RE2.
	SameSrcEqual
)

func (f Form) String() string {
	switch f {
	case SameSrcDisjoint:
		return "∀p, p.RE1 <> p.RE2"
	case DiffSrcDisjoint:
		return "∀p<>q, p.RE1 <> q.RE2"
	case SameSrcEqual:
		return "∀p, p.RE1 = p.RE2"
	}
	return "unknown form"
}

// Axiom is one aliasing axiom.  Name is optional and used in proof traces
// (e.g. "A1").
type Axiom struct {
	Name string
	Form Form
	RE1  pathexpr.Expr
	RE2  pathexpr.Expr
}

// String renders the axiom in the paper's concrete syntax.
func (a Axiom) String() string {
	var head, rel string
	switch a.Form {
	case SameSrcDisjoint:
		head, rel = "∀p, p.%s <> p.%s", "<>"
	case DiffSrcDisjoint:
		head, rel = "∀p<>q, p.%s <> q.%s", "<>"
	case SameSrcEqual:
		head, rel = "∀p, p.%s = p.%s", "="
	}
	_ = rel
	s := fmt.Sprintf(head, a.RE1, a.RE2)
	if a.Name != "" {
		s = a.Name + ": " + s
	}
	return s
}

// Fields returns the sorted field names mentioned by the axiom.
func (a Axiom) Fields() []string {
	return pathexpr.Fields(a.RE1, a.RE2)
}

// Set is an ordered collection of axioms describing one data structure.
//
// Key and ID memoize their results against len(Axioms): append axioms
// through Add (or by extending the slice) freely, but do not mutate an
// existing element of Axioms in place after the first Key/ID call — the
// memo would not notice.  Nothing in this codebase edits axioms in place;
// sets evolve by construction (NewSet, Add, WithoutFields, Intersect).
type Set struct {
	// StructName optionally names the described structure type.
	StructName string
	Axioms     []Axiom

	// memo guards the fingerprint cache below.  Key() sits on the hot path
	// of every engine and serve lookup; recomputing the sorted rendering per
	// call was measurable, and the set length is a sufficient validity check
	// under the no-in-place-mutation rule above.
	memo struct {
		mu  sync.Mutex
		ok  bool
		n   int
		key string
		id  uint64
		fp  uint64
	}
}

// setIDs interns set fingerprints to stable 64-bit IDs, so two Sets built
// independently from the same axioms (distinct pointers, equal keys) share
// an identity and the proof memo and the testers' prover caches can key on
// integers.
var setIDs = struct {
	mu   sync.Mutex
	ids  map[string]uint64
	next uint64
}{ids: make(map[string]uint64)}

// NewSet builds a set from axioms.
func NewSet(name string, axioms ...Axiom) *Set {
	return &Set{StructName: name, Axioms: axioms}
}

// Add appends an axiom, auto-naming it A<n> when unnamed, and returns the
// set for chaining.
func (s *Set) Add(a Axiom) *Set {
	if a.Name == "" {
		a.Name = fmt.Sprintf("A%d", len(s.Axioms)+1)
	}
	s.Axioms = append(s.Axioms, a)
	return s
}

// Fields returns the sorted union of field names mentioned by all axioms.
func (s *Set) Fields() []string {
	set := make(map[string]bool)
	for _, a := range s.Axioms {
		for _, f := range a.Fields() {
			set[f] = true
		}
	}
	out := make([]string, 0, len(set))
	for f := range set {
		out = append(out, f)
	}
	sort.Strings(out)
	return out
}

// ByForm returns the axioms with the given form, in declaration order.
func (s *Set) ByForm(f Form) []Axiom {
	var out []Axiom
	for _, a := range s.Axioms {
		if a.Form == f {
			out = append(out, a)
		}
	}
	return out
}

// Key returns a canonical fingerprint of the set, behind ID (the proof
// memo's key) and snapshot ordering.  Computed once per set size and memoized.
func (s *Set) Key() string {
	s.memo.mu.Lock()
	defer s.memo.mu.Unlock()
	s.refreshMemoLocked()
	return s.memo.key
}

// ID returns the set's stable 64-bit identity: sets with equal Key share an
// ID for the lifetime of the process.  The proof memo and the tester's
// per-window prover cache key on it instead of carrying the full
// fingerprint string per lookup.
func (s *Set) ID() uint64 {
	s.memo.mu.Lock()
	defer s.memo.mu.Unlock()
	s.refreshMemoLocked()
	return s.memo.id
}

// Fingerprint64 returns the set's cross-process-stable identity: the
// FNV-64a hash of the canonical Key().  Unlike ID() — which is assigned by
// a process-local append-only registry and therefore depends on interning
// order — the fingerprint is a pure function of the axiom content, so two
// processes that never exchanged state agree on it.  It is what may cross
// the wire: the cluster router's consistent-hash ring places axiom sets on
// backends by fingerprint.  (Like Key, it is name- and declaration-order-
// blind.)
func (s *Set) Fingerprint64() uint64 {
	s.memo.mu.Lock()
	defer s.memo.mu.Unlock()
	s.refreshMemoLocked()
	return s.memo.fp
}

// fingerprint64ForKey hashes a canonical fingerprint string (a Key
// rendering, possibly produced by another process) the same way
// Set.Fingerprint64 does.
func fingerprint64ForKey(key string) uint64 {
	return strhash.FNV64a(key)
}

// refreshMemoLocked recomputes the key/ID memo when the axiom count changed
// since the last computation.  Caller holds s.memo.mu.
func (s *Set) refreshMemoLocked() {
	if s.memo.ok && s.memo.n == len(s.Axioms) {
		return
	}
	parts := make([]string, len(s.Axioms))
	for i, a := range s.Axioms {
		parts[i] = fmt.Sprintf("%d\x01%s\x01%s", a.Form, a.RE1, a.RE2)
	}
	sort.Strings(parts)
	key := strings.Join(parts, "\x02")
	setIDs.mu.Lock()
	id, ok := setIDs.ids[key]
	if !ok {
		setIDs.next++
		id = setIDs.next
		setIDs.ids[key] = id
	}
	setIDs.mu.Unlock()
	s.memo.ok, s.memo.n, s.memo.key, s.memo.id = true, len(s.Axioms), key, id
	s.memo.fp = fingerprint64ForKey(key)
}

// WithoutFields returns a new set containing only axioms that mention none
// of the given fields.  This implements the §3.4 rule: a structural
// modification to field f invalidates (conservatively) every axiom
// constraining f, and a dependence test spanning the modification must use
// the intersection of the axiom sets valid before and after — which is
// exactly the before-set minus the f-constraining axioms.
func (s *Set) WithoutFields(fields ...string) *Set {
	drop := make(map[string]bool, len(fields))
	for _, f := range fields {
		drop[f] = true
	}
	out := &Set{StructName: s.StructName}
	for _, a := range s.Axioms {
		touched := false
		for _, f := range a.Fields() {
			if drop[f] {
				touched = true
				break
			}
		}
		if !touched {
			out.Axioms = append(out.Axioms, a)
		}
	}
	return out
}

// Intersect returns the axioms present in both sets (by form and language
// text).  Used to combine validity windows across modification sites.
func (s *Set) Intersect(o *Set) *Set {
	have := make(map[axiomFP]bool, len(o.Axioms))
	for _, a := range o.Axioms {
		have[fingerprint(a)] = true
	}
	out := &Set{StructName: s.StructName}
	for _, a := range s.Axioms {
		if have[fingerprint(a)] {
			out.Axioms = append(out.Axioms, a)
		}
	}
	return out
}

// axiomFP is one axiom's identity for set intersection: form plus the
// interned IDs of both expressions (IDs biject with canonical renderings,
// so this matches the textual fingerprint it replaced).
type axiomFP struct {
	form     Form
	re1, re2 uint64
}

func fingerprint(a Axiom) axiomFP {
	return axiomFP{form: a.Form, re1: pathexpr.InternID(a.RE1), re2: pathexpr.InternID(a.RE2)}
}

// SourceLine renders the axiom in the ASCII concrete syntax Parse accepts
// ("forall" and "eps" rather than "∀" and "ε"), without a trailing
// separator.  Parse(SourceLine(a)) yields an axiom with equal form and
// expression languages, which is what lets axiom sets travel as text: in
// struct declarations, in wire-format raw-query requests, and in test
// fixtures.
func (a Axiom) SourceLine() string {
	re1 := strings.ReplaceAll(a.RE1.String(), "ε", "eps")
	re2 := strings.ReplaceAll(a.RE2.String(), "ε", "eps")
	name := ""
	if a.Name != "" {
		name = a.Name + ": "
	}
	switch a.Form {
	case DiffSrcDisjoint:
		return fmt.Sprintf("%sforall p <> q, p.%s <> q.%s", name, re1, re2)
	case SameSrcEqual:
		return fmt.Sprintf("%sforall p, p.%s = p.%s", name, re1, re2)
	default:
		return fmt.Sprintf("%sforall p, p.%s <> p.%s", name, re1, re2)
	}
}

// Source renders the whole set as parseable axiom lines: ParseSet(name,
// s.Source()) reconstructs a set with an equal Key (and therefore equal
// Fingerprint64), which the wire layer's raw-query mode relies on.
func (s *Set) Source() string {
	var b strings.Builder
	for _, a := range s.Axioms {
		b.WriteString(a.SourceLine())
		b.WriteByte('\n')
	}
	return b.String()
}

// Len returns the number of axioms.
func (s *Set) Len() int { return len(s.Axioms) }

// String renders the whole set, one axiom per line.
func (s *Set) String() string {
	var b strings.Builder
	if s.StructName != "" {
		fmt.Fprintf(&b, "axioms of %s:\n", s.StructName)
	}
	for _, a := range s.Axioms {
		b.WriteString("  ")
		b.WriteString(a.String())
		b.WriteByte('\n')
	}
	return b.String()
}
