package lint

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/automata"
	"repro/internal/axiom"
	"repro/internal/pathexpr"
	"repro/internal/prover"
)

// axiomConsistency detects contradictory axiom sets with the automata
// product/emptiness kernels and the theorem prover itself:
//
//   - a same-source disjointness axiom ∀p, p.RE1 <> p.RE2 whose languages
//     intersect is self-contradictory: a shared word w makes it assert
//     p.w <> p.w, i.e. a vertex differs from itself;
//   - an equality axiom ∀p, p.RE1 = p.RE2 contradicts the disjointness
//     axioms when they prove p.RE1 <> p.RE2 (the type-1/type-2 vs type-3
//     clash the paper's axiom forms admit, §3.1);
//   - a side denoting the empty language makes an axiom vacuous, and
//     duplicated axioms are redundant — both reported as lesser findings.
type axiomConsistency struct{}

// AxiomConsistency returns the axiom-consistency pass.
func AxiomConsistency() Pass { return axiomConsistency{} }

func (axiomConsistency) Name() string { return "axiom-consistency" }
func (axiomConsistency) Doc() string {
	return "detect contradictory, vacuous, or duplicated aliasing axioms (§3.1)"
}

func (axiomConsistency) Run(ctx *Context) error {
	for _, s := range ctx.Prog.Structs {
		if s.Axioms == nil || ctx.SkipStruct(s.Name) {
			continue
		}
		for _, d := range CheckSet(s.Axioms) {
			d.Pos = s.Pos
			d.Message = fmt.Sprintf("struct %s: %s", s.Name, d.Message)
			ctx.Report(d)
		}
	}
	return nil
}

// CheckSet statically checks one axiom set for internal consistency and
// returns findings with unset positions (callers anchor them).  It is
// exported for axiomcheck, which refuses to model-check a set that is
// already contradictory on paper.
func CheckSet(set *axiom.Set) []Diagnostic {
	var out []Diagnostic
	report := func(sev Severity, format string, args ...any) {
		out = append(out, Diagnostic{
			Severity: sev,
			Category: "axiom-consistency",
			Message:  fmt.Sprintf(format, args...),
		})
	}

	alpha := automata.NewAlphabet(set.Fields()...)
	cache := automata.NewSharedCache(0, 1, 0)
	seen := make(map[string]string, set.Len())
	empty := make(map[int][2]bool, set.Len()) // axiom index -> per-side emptiness
	for i, a := range set.Axioms {
		fp := fmt.Sprintf("%d\x01%s\x01%s", a.Form, a.RE1, a.RE2)
		if prev, ok := seen[fp]; ok {
			report(Info, "axiom %s duplicates %s (%v)", a.Name, prev, a)
		} else {
			seen[fp] = a.Name
		}
		d1, err1 := cache.DFA(pathexpr.Intern(a.RE1), alpha)
		d2, err2 := cache.DFA(pathexpr.Intern(a.RE2), alpha)
		if err1 != nil || err2 != nil {
			report(Warning, "axiom %s: path expression too large to compile; consistency not checked", a.Name)
			continue
		}
		sides := [2]bool{d1.IsEmpty(), d2.IsEmpty()}
		empty[i] = sides
		for j, isEmpty := range sides {
			if isEmpty {
				side := [...]string{"left", "right"}[j]
				report(Warning, "axiom %s: %s side %s denotes the empty language; the axiom is vacuous",
					a.Name, side, [2]string{a.RE1.String(), a.RE2.String()}[j])
			}
		}
		if a.Form == axiom.SameSrcDisjoint && !sides[0] && !sides[1] {
			if w, ok := d1.Intersect(d2).Witness(); ok {
				report(Error,
					"axiom %s is self-contradictory: both sides accept the path %q, so it asserts p.%s <> p.%s — a vertex distinct from itself",
					a.Name, wordString(w), wordString(w), wordString(w))
			}
		}
	}

	// Equality axioms against the disjointness fragment: if the disjointness
	// axioms alone prove ∀p, p.RE1 <> p.RE2 while an equality axiom asserts
	// ∀p, p.RE1 = p.RE2, the set has no model with a vertex carrying RE1.
	equalities := set.ByForm(axiom.SameSrcEqual)
	if len(equalities) == 0 {
		return out
	}
	disj := &axiom.Set{StructName: set.StructName}
	for _, a := range set.Axioms {
		if a.Form != axiom.SameSrcEqual {
			disj.Axioms = append(disj.Axioms, a)
		}
	}
	prv := prover.New(disj, prover.Options{DFACache: cache})
	for i, a := range set.Axioms {
		if a.Form != axiom.SameSrcEqual || empty[i][0] || empty[i][1] {
			continue
		}
		if pf := prv.Prove(prover.SameSrc, a.RE1, a.RE2); pf.Result == prover.Proved {
			names := disjointnessNames(pf)
			detail := ""
			if len(names) > 0 {
				detail = " (using " + strings.Join(names, ", ") + ")"
			}
			report(Error,
				"equality axiom %s (%v) contradicts the disjointness axioms: ∀p, p.%s <> p.%s is provable%s",
				a.Name, a, a.RE1, a.RE2, detail)
		}
	}
	return out
}

// disjointnessNames collects the axiom names a proof cites, sorted and
// deduplicated, for the contradiction message.
func disjointnessNames(pf *prover.Proof) []string {
	seen := map[string]bool{}
	var walk func(s *prover.Step)
	walk = func(s *prover.Step) {
		if s == nil {
			return
		}
		for _, by := range []string{s.By, s.ByT1, s.ByT2} {
			if by != "" && !strings.HasPrefix(by, "IH") {
				seen[by] = true
			}
		}
		for _, c := range s.Children {
			walk(c)
		}
	}
	walk(pf.Root)
	var out []string
	for n := range seen {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

func wordString(w []string) string {
	if len(w) == 0 {
		return "ε"
	}
	return strings.Join(w, ".")
}
