package prover_test

import (
	"math/rand"
	"testing"

	"repro/internal/axiom"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/pathexpr"
	"repro/internal/prover"
)

// genGoalSide builds a random path expression in the style of the pathexpr
// property generator (fields, ε, concatenation, alternation, closures),
// sometimes as a raw nested Concat or Alt literal — a structure the smart
// constructors never build, but which renders like the flat one and so must
// intern to the same node.
func genGoalSide(rng *rand.Rand, fields []string, depth int) pathexpr.Expr {
	if depth <= 0 {
		return pathexpr.F(fields[rng.Intn(len(fields))])
	}
	a := func() pathexpr.Expr { return genGoalSide(rng, fields, depth-1) }
	switch rng.Intn(8) {
	case 0:
		return pathexpr.F(fields[rng.Intn(len(fields))])
	case 1:
		return pathexpr.Eps
	case 2:
		return pathexpr.Cat(a(), a(), a())
	case 3:
		return pathexpr.Or(a(), a())
	case 4:
		return pathexpr.Rep(a())
	case 5:
		return pathexpr.Rep1(a())
	case 6:
		return pathexpr.Concat{Parts: []pathexpr.Expr{a(), pathexpr.Concat{Parts: []pathexpr.Expr{a(), a()}}}}
	default:
		return pathexpr.Alt{Alts: []pathexpr.Expr{a(), pathexpr.Alt{Alts: []pathexpr.Expr{a(), a()}}}}
	}
}

// TestGoalNodesMatchComponents pins the prover's one representation to the
// rendering identity: over the engine's seed-1 workload and random goals,
// every side, suffix and prefix node a goal carries is the interned
// concatenation of its components, and every goal key equals the key of
// the reassembled sides.  A later edit that lets a carried node drift from
// the components it stands for fails here, before it can change a cache's
// equality classes.
func TestGoalNodesMatchComponents(t *testing.T) {
	checked, restore := prover.WatchGoals(t)
	defer restore()

	tester := core.NewTester(engine.WorkloadWindows()[0], prover.Options{})
	for _, q := range engine.Workload(1, 0) {
		tester.DepTest(q)
	}
	workload := checked()
	if workload == 0 {
		t.Fatal("the workload's searches entered no goal")
	}

	rng := rand.New(rand.NewSource(1))
	for _, ax := range []*axiom.Set{axiom.LeafLinkedBinaryTree(), axiom.SparseMatrixCore()} {
		p := prover.New(ax, prover.Options{MaxSteps: 5000})
		fields := ax.Fields()
		for i := 0; i < 150; i++ {
			x, y := genGoalSide(rng, fields, 3), genGoalSide(rng, fields, 3)
			p.Prove(prover.SameSrc, x, y)
			p.Prove(prover.DiffSrc, x, y)
		}
	}
	if checked() == workload {
		t.Fatal("the random goals' searches entered no goal")
	}
	t.Logf("%d goals checked (%d from the workload)", checked(), workload)
}

// TestDefinitelyAliasedMatchesSimplify: DefinitelyAliased reads each path's
// simplified form from the interner; over every pair of the differential
// workload's access paths, under each of its validity windows, its answers
// equal the ones that extract the words from a fresh Simplify of the paths.
func TestDefinitelyAliasedMatchesSimplify(t *testing.T) {
	simplified := func(p *prover.Prover, x, y pathexpr.Expr) bool {
		w1, ok1 := pathexpr.Word(pathexpr.Simplify(x))
		w2, ok2 := pathexpr.Word(pathexpr.Simplify(y))
		return ok1 && ok2 && p.WordsCongruent(w1, w2)
	}
	var paths []pathexpr.Expr
	seen := map[string]bool{}
	for _, q := range engine.Workload(1, 0) {
		for _, x := range []pathexpr.Expr{q.S.Path, q.T.Path} {
			if !seen[x.String()] {
				seen[x.String()] = true
				paths = append(paths, x)
			}
		}
	}
	aliased := 0
	for _, ax := range engine.WorkloadWindows() {
		p := prover.New(ax, prover.Options{})
		for _, x := range paths {
			for _, y := range paths {
				got, want := p.DefinitelyAliased(pathexpr.Intern(x), pathexpr.Intern(y)), simplified(p, x, y)
				if got != want {
					t.Errorf("%s: DefinitelyAliased(%v, %v) = %v, Simplify-based answer %v", ax.StructName, x, y, got, want)
				}
				if got {
					aliased++
				}
			}
		}
	}
	if aliased == 0 {
		t.Fatal("no pair of workload paths is definitely aliased; the comparison is vacuous")
	}
}
