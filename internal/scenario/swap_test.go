package scenario

import (
	"math/rand"
	"testing"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/lang"
	"repro/internal/prover"
)

// TestFarmTesterSwapSymmetric checks the swap property on a fixed-seed
// slice of the scenario farm: for every dependence query the generated
// programs expand to, the sequential tester gives ⟨S,T⟩ and ⟨T,S⟩ — guards
// swapped along with their accesses — the same Result.
func TestFarmTesterSwapSymmetric(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	fams := Families()
	checked := 0
	for i := 0; i < 40; i++ {
		fam := fams[i%len(fams)]
		sp := GenerateSpec(fam, rng)
		prog, err := lang.Parse(sp.Render())
		if err != nil {
			t.Fatal(err)
		}
		res, err := analysis.Analyze(prog, "scenario", analysis.Options{})
		if err != nil {
			t.Fatal(err)
		}
		fwd := core.NewTester(fam.Axioms, prover.Options{})
		rev := core.NewTester(fam.Axioms, prover.Options{})
		for _, line := range sp.queryLines() {
			var qs []core.Query
			switch line.Mode {
			case "between":
				qs, err = res.QueriesBetween(line.A, line.B)
			case "cross":
				qs, err = res.LoopCarriedBetween(line.A, line.B)
			default:
				qs, err = res.LoopCarriedQueries(line.A)
			}
			if err != nil {
				continue
			}
			for _, q := range qs {
				s := q
				s.S, s.T = q.T, q.S
				s.SGuards, s.TGuards = q.TGuards, q.SGuards
				if a, b := fwd.DepTest(q), rev.DepTest(s); a.Result != b.Result {
					t.Errorf("family %s, %q: %v forward but %v swapped (S %v, T %v)",
						fam.Name, line.Text, a.Result, b.Result, q.S, q.T)
				}
				checked++
			}
		}
	}
	if checked == 0 {
		t.Fatal("the farm slice expanded to no queries")
	}
	t.Logf("%d queries checked", checked)
}
