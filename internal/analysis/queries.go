package analysis

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"repro/internal/axiom"
	"repro/internal/core"
	"repro/internal/pathexpr"
)

// AccessesAt returns the accesses recorded at the given statement label.
func (r *Result) AccessesAt(label string) []Access {
	var out []Access
	for _, a := range r.Accesses {
		if a.Label == label {
			out = append(out, a)
		}
	}
	return out
}

// windowAxioms returns the axiom set valid across the window between two
// access epochs (§3.4): the declared axioms minus every axiom constraining
// a field structurally modified in between, plus any extra fields to drop
// (e.g. fields modified somewhere in an enclosing loop for loop-carried
// queries).
func (r *Result) windowAxioms(epochS, epochT int, extraFields []string) *axiom.Set {
	lo, hi := epochS, epochT
	if lo > hi {
		lo, hi = hi, lo
	}
	drop := map[string]bool{}
	for _, m := range r.Mods {
		if m.Epoch >= lo && m.Epoch < hi {
			drop[m.Field] = true
		}
	}
	for _, f := range extraFields {
		drop[f] = true
	}
	if drop["*"] {
		// An opaque structural modification invalidates everything.
		return &axiom.Set{StructName: r.Axioms.StructName}
	}
	if len(drop) == 0 {
		return r.Axioms
	}
	fields := make([]string, 0, len(drop))
	for f := range drop {
		fields = append(fields, f)
	}
	sort.Strings(fields)
	return r.Axioms.WithoutFields(fields...)
}

// commonHandle picks a handle shared by both path maps.  Synthetic
// iteration handles are preferred: for two accesses in the same iteration
// they anchor the shortest (most precise) paths.  Straight-line code has no
// iteration handles, so the choice is inert there.  Names sort for
// determinism.  ok is false when the accesses share no anchor.
func commonHandle(a, b map[string]pathexpr.Expr) (string, bool) {
	var shared []string
	for h := range a {
		if _, ok := b[h]; ok {
			shared = append(shared, h)
		}
	}
	if len(shared) == 0 {
		return "", false
	}
	sort.Slice(shared, func(i, j int) bool {
		ii, ij := strings.HasPrefix(shared[i], "_it"), strings.HasPrefix(shared[j], "_it")
		if ii != ij {
			return ii
		}
		return shared[i] < shared[j]
	})
	return shared[0], true
}

// QueriesBetween builds the dependence queries from statement S to statement
// T along straight-line execution: one per (access at S, access at T) pair
// with at least one write.  Both accesses must share a handle — the paper's
// "scan the APMs for a handle common to both p and q".
func (r *Result) QueriesBetween(labelS, labelT string) ([]core.Query, error) {
	sAccs := r.AccessesAt(labelS)
	tAccs := r.AccessesAt(labelT)
	if len(sAccs) == 0 {
		return nil, fmt.Errorf("analysis: no accesses at label %q", labelS)
	}
	if len(tAccs) == 0 {
		return nil, fmt.Errorf("analysis: no accesses at label %q", labelT)
	}
	var out []core.Query
	for _, s := range sAccs {
		for _, t := range tAccs {
			if !s.IsWrite && !t.IsWrite {
				continue
			}
			axioms := r.windowAxioms(s.ModEpoch, t.ModEpoch, nil)
			if h, ok := commonHandle(s.Paths, t.Paths); ok {
				out = append(out, core.Query{
					Axioms: axioms,
					S: core.Access{
						Handle: h, Path: s.Paths[h], Field: s.Field,
						Type: s.Type, IsWrite: s.IsWrite,
					},
					T: core.Access{
						Handle: h, Path: t.Paths[h], Field: t.Field,
						Type: t.Type, IsWrite: t.IsWrite,
					},
					// Straight-line S→T: both sides belong to one execution
					// instance, so the full guard sets apply.
					SGuards: s.Guards,
					TGuards: t.Guards,
				})
				continue
			}
			// No common handle: fall back to the unknown-relation form
			// (§4.1: "the test for different handles is nearly identical,
			// although its accuracy depends on knowing the relationship
			// between the two handles").  deptest then requires proofs for
			// both the same- and distinct-anchor cases.
			hs, okS := anyHandle(s.Paths)
			ht, okT := anyHandle(t.Paths)
			if !okS || !okT {
				continue
			}
			out = append(out, core.Query{
				Axioms:   axioms,
				Relation: core.UnknownHandles,
				S: core.Access{
					Handle: hs, Path: s.Paths[hs], Field: s.Field,
					Type: s.Type, IsWrite: s.IsWrite,
				},
				T: core.Access{
					Handle: ht, Path: t.Paths[ht], Field: t.Field,
					Type: t.Type, IsWrite: t.IsWrite,
				},
				SGuards: s.Guards,
				TGuards: t.Guards,
			})
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("analysis: no conflicting access pair with usable handles between %q and %q", labelS, labelT)
	}
	return out, nil
}

// anyHandle picks the deterministic first handle of a path map, preferring
// the longest path (most structural information).
func anyHandle(paths map[string]pathexpr.Expr) (string, bool) {
	best := ""
	bestSize := -1
	for h, p := range paths {
		if s := p.Size(); s > bestSize || (s == bestSize && h < best) {
			best, bestSize = h, s
		}
	}
	return best, best != ""
}

// LoopCarriedQueries builds the loop-carried self-dependence queries for the
// statement at the given label, which must lie inside a loop with an
// analyzable induction variable.  For an access with per-iteration path A
// and increment δ, iterations i < j access h.A and h.δ⁺A from the synthetic
// iteration handle h (§5's formulation).
func (r *Result) LoopCarriedQueries(label string) ([]core.Query, error) {
	accs := r.AccessesAt(label)
	if len(accs) == 0 {
		return nil, fmt.Errorf("analysis: no accesses at label %q", label)
	}
	var out []core.Query
	for _, a := range accs {
		out = append(out, r.LoopCarriedSelf(a)...)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("analysis: label %q has no written access inside an analyzable loop", label)
	}
	return out, nil
}

// LoopCarriedSelf builds the loop-carried self-dependence queries for one
// recorded access: nil unless the access writes inside a loop with an
// analyzable induction variable.
func (r *Result) LoopCarriedSelf(a Access) []core.Query {
	if !a.IsWrite {
		// A read conflicts across iterations only with writes; the
		// write access produces those queries.
		return nil
	}
	var out []core.Query
	for ih, delta := range a.IterDeltas {
		axioms := r.Axioms
		if !r.opts.AssumeLoopInvariants {
			axioms = r.windowAxioms(0, 0, a.LoopModFields)
		}
		q := core.LoopCarried(axioms, ih, delta, a.Paths[ih], a.Field, a.IsWrite)
		q.S.Type, q.T.Type = a.Type, a.Type
		// Both sides are the same access, so both carry its full guard
		// set: a syntactic conflict can only arise from a set that
		// contradicts itself (dead code in every iteration), and an
		// infeasible guard kills the access in every iteration — both
		// sound regardless of loop variance.
		q.SGuards, q.TGuards = a.Guards, a.Guards
		out = append(out, q)
	}
	return out
}

// LoopCarriedBetween builds cross-iteration queries between two statements
// in the same loop: statement S at iteration i against statement T at a
// later iteration j > i.
func (r *Result) LoopCarriedBetween(labelS, labelT string) ([]core.Query, error) {
	sAccs := r.AccessesAt(labelS)
	tAccs := r.AccessesAt(labelT)
	var out []core.Query
	for _, s := range sAccs {
		for _, t := range tAccs {
			out = append(out, r.LoopCarriedPair(s, t)...)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("analysis: no loop-carried pair between %q and %q", labelS, labelT)
	}
	return out, nil
}

// LoopCarriedPair builds the cross-iteration queries between two recorded
// accesses of the same loop (s at iteration i, t at iteration j > i): one
// per iteration handle the two accesses advance in lockstep.  Nil when
// neither access writes or the accesses share no induction handle.
func (r *Result) LoopCarriedPair(s, t Access) []core.Query {
	if !s.IsWrite && !t.IsWrite {
		return nil
	}
	var out []core.Query
	for ih, delta := range s.IterDeltas {
		tPath, ok := t.Paths[ih]
		if !ok {
			continue
		}
		if td, ok := t.IterDeltas[ih]; !ok || !pathexpr.Equal(td, delta) {
			continue
		}
		axioms := r.Axioms
		if !r.opts.AssumeLoopInvariants {
			axioms = r.windowAxioms(0, 0, append(append([]string{}, s.LoopModFields...), t.LoopModFields...))
		}
		out = append(out, core.Query{
			Axioms: axioms,
			S: core.Access{
				Handle: ih, Path: s.Paths[ih], Field: s.Field,
				Type: s.Type, IsWrite: s.IsWrite,
			},
			T: core.Access{
				Handle: ih,
				Path:   pathexpr.Cat(pathexpr.Rep1(delta), tPath),
				Field:  t.Field,
				Type:   t.Type, IsWrite: t.IsWrite,
			},
			// s runs in iteration i, t in a later iteration j: only the
			// loop-invariant guard subsets keep one truth value across
			// both, so only they may conflict.
			SGuards: s.InvGuards,
			TGuards: t.InvGuards,
		})
	}
	return out
}

// ErrQueryMode reports a query mode other than "between", "cross", or
// "loop".
var ErrQueryMode = errors.New("unknown query mode")

// QueriesFor builds the queries of one query-line mode: "between"
// (QueriesBetween of a and b), "cross" (LoopCarriedBetween of a and b), or
// "loop" (LoopCarriedQueries of a; b is ignored).
func (r *Result) QueriesFor(mode, a, b string) ([]core.Query, error) {
	switch mode {
	case "between":
		return r.QueriesBetween(a, b)
	case "cross":
		return r.LoopCarriedBetween(a, b)
	case "loop":
		return r.LoopCarriedQueries(a)
	}
	return nil, fmt.Errorf("%w %q", ErrQueryMode, mode)
}

// ExpandQueryLines expands query lines — the grammar of aptdep -batch
// files, aptc -queries files, and /v1/batch's queries — against r.  Each
// line is "between S T", "cross S T", or "loop U"; '#' starts a comment and
// blank lines are skipped.  origins[i] is the index in lines of the line
// queries[i] came from.  Errors name the offending line as where(index).
func (r *Result) ExpandQueryLines(lines []string, where func(int) string) (queries []core.Query, origins []int, err error) {
	for n, line := range lines {
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		var b string
		switch {
		case (fields[0] == "between" || fields[0] == "cross") && len(fields) == 3:
			b = fields[2]
		case fields[0] == "loop" && len(fields) == 2:
		default:
			return nil, nil, fmt.Errorf("%s: want 'between S T', 'cross S T', or 'loop U', got %q",
				where(n), strings.TrimSpace(line))
		}
		qs, err := r.QueriesFor(fields[0], fields[1], b)
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", where(n), err)
		}
		queries = append(queries, qs...)
		for range qs {
			origins = append(origins, n)
		}
	}
	return queries, origins, nil
}
