package engine

import (
	"testing"

	"repro/internal/core"
	"repro/internal/pathexpr"
	"repro/internal/prover"
)

// FuzzCanonicalGoal checks the memo key's contracts on arbitrary
// expression pairs:
//
//   - swap invariance: the same pair with its sides swapped is one theorem
//     and shares a key;
//   - form separation: the same sides under the other quantifier are a
//     different theorem and a different key;
//   - no collisions: a key names exactly the two normalized sides, in
//     rendering order, so two keys are equal only when the normalized goals
//     are.
func FuzzCanonicalGoal(f *testing.F) {
	seeds := [][4]string{
		{"L", "R", "L", "R"},
		{"L.R", "R.L", "R.L", "L.R"},
		{"(L|R)+", "N*", "N*", "(L|R)+"},
		{"L.(L|R)*", "R.(L|R)*", "L", "R"},
		{"ε", "N+", "N", "N.N"},
		{"L", "L", "R", "R"},
		{"(L|R|N)+", "ε", "(N|R|L)+", "ε"},
	}
	for _, s := range seeds {
		f.Add(s[0], s[1], s[2], s[3], true)
	}
	f.Fuzz(func(t *testing.T, a, b, c, d string, sameSrc bool) {
		parse := func(s string) (pathexpr.Expr, bool) {
			if len(s) > 64 {
				return nil, false
			}
			e, err := pathexpr.Parse(s)
			if err != nil {
				return nil, false
			}
			return e, true
		}
		// sides returns the interned IDs of a pair's normalized sides, in
		// key order (by rendering).
		sides := func(x, y pathexpr.Expr) (uint64, uint64) {
			sx, sy := pathexpr.Intern(pathexpr.Simplify(x)), pathexpr.Intern(pathexpr.Simplify(y))
			if sy.String() < sx.String() {
				sx, sy = sy, sx
			}
			return sx.ID(), sy.ID()
		}
		x, ok := parse(a)
		if !ok {
			t.Skip()
		}
		y, ok := parse(b)
		if !ok {
			t.Skip()
		}
		form := prover.SameSrc
		if !sameSrc {
			form = prover.DiffSrc
		}
		key := core.CanonicalGoalKey(form, x, y)

		if swapped := core.CanonicalGoalKey(form, y, x); swapped != key {
			t.Errorf("key differs under swap: %+v vs %+v", key, swapped)
		}
		other := prover.DiffSrc
		if form == prover.DiffSrc {
			other = prover.SameSrc
		}
		if core.CanonicalGoalKey(other, x, y) == key {
			t.Errorf("key %+v does not separate SameSrc from DiffSrc", key)
		}
		// The key holds exactly the IDs of the two normalized sides, in
		// rendering order, so equal keys imply equal normalized goals.
		sx, sy := sides(x, y)
		if key.A != sx || key.B != sy {
			t.Errorf("key %+v holds IDs (%d,%d), want the normalized sides' (%d,%d)", key, key.A, key.B, sx, sy)
		}

		// Cross-pair separation: when a second parseable pair yields the
		// same key, its normalized sides must be the same two expressions.
		u, ok := parse(c)
		if !ok {
			return
		}
		v, ok := parse(d)
		if !ok {
			return
		}
		if core.CanonicalGoalKey(form, u, v) == key {
			if su, sv := sides(u, v); su != sx || sv != sy {
				t.Errorf("collision: (%q,%q) and (%q,%q) share key %+v", a, b, c, d, key)
			}
		}
	})
}

// TestCanonicalSwapIsProverSound pins the semantic claim behind the
// canonicalization: for every prover-reaching pair in the workload and both
// quantifier forms, the prover's verdict on ⟨x,y⟩ equals its verdict on
// ⟨y,x⟩ — disjointness is symmetric for a common anchor, and for distinct
// anchors renaming the bound handles h↔k swaps the sides.
func TestCanonicalSwapIsProverSound(t *testing.T) {
	for _, w := range WorkloadWindows() {
		for _, spec := range workloadSpecs {
			x := pathexpr.MustParse(spec.x)
			y := pathexpr.MustParse(spec.y)
			for _, form := range []prover.Form{prover.SameSrc, prover.DiffSrc} {
				fwd := prover.New(w, prover.Options{}).Prove(form, x, y)
				rev := prover.New(w, prover.Options{}).Prove(form, y, x)
				if fwd.Result != rev.Result {
					t.Errorf("window %s, form %v, %s vs %s: verdict %v forward but %v reversed",
						w.StructName, form, spec.x, spec.y, fwd.Result, rev.Result)
				}
			}
		}
	}
}
