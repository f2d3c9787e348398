package engine

import (
	"encoding/json"
	"os"
	"testing"

	"repro/internal/automata"
	"repro/internal/core"
	"repro/internal/pathexpr"
	"repro/internal/prover"
)

// The intern benchmarks measure the warm-hit cost of every cache the
// hash-consed core rekeyed: the shared DFA cache, its boolean-decision
// memo, the cross-query proof memo, and canonical goal keying.  Warm hits
// are the steady state of every serving workload — a long-lived aptserved
// process answers almost everything out of these paths — so their per-call
// cost and allocation count are the refactor's primary meters.

func benchInternExprs() (x, y pathexpr.Expr, a *automata.Alphabet) {
	x = pathexpr.MustParse("nrowE+.ncolE*")
	y = pathexpr.MustParse("ncolE+")
	return x, y, automata.AlphabetOf(x, y)
}

func BenchmarkSharedCacheDFAHit(b *testing.B) {
	x, _, a := benchInternExprs()
	xn := pathexpr.Intern(x)
	c := automata.NewSharedCache(0, 0, 0)
	if _, err := c.DFA(xn, a); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.DFA(xn, a); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSharedCacheOpsHit(b *testing.B) {
	x, y, a := benchInternExprs()
	xn, yn := pathexpr.Intern(x), pathexpr.Intern(y)
	c := automata.NewSharedCache(0, 0, 0)
	if _, err := c.Disjoint(xn, yn, a); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Disjoint(xn, yn, a); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkProofMemoHit(b *testing.B) {
	x, y, _ := benchInternExprs()
	m := core.NewMemo(0, 0, nil)
	axioms := WorkloadWindows()[0]
	prv, ax := prover.New(axioms, prover.Options{}), axioms.ID()
	m.Prove(prv, ax, prover.SameSrc, x, y)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Prove(prv, ax, prover.SameSrc, x, y)
	}
}

func BenchmarkCanonicalGoalKey(b *testing.B) {
	x, y, _ := benchInternExprs()
	pathexpr.Intern(x).Simplified()
	pathexpr.Intern(y).Simplified()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.CanonicalGoalKey(prover.SameSrc, x, y)
	}
}

// benchInternRow is one measured warm-hit path.
type benchInternRow struct {
	NsOp   int64 `json:"ns_op"`
	Allocs int64 `json:"allocs_op"`
}

// benchInternReport is the BENCH_intern.json schema.  Baseline rows are the
// same paths measured at the last string-keyed commit, frozen here so the
// report always carries its own before/after comparison.
type benchInternReport struct {
	Baseline map[string]benchInternRow `json:"baseline_string_keys"`
	Current  map[string]benchInternRow `json:"current_interned_keys"`
}

// internBaseline holds the warm-hit numbers measured immediately before the
// hash-consing refactor (string-keyed caches, commit 438c52b).
var internBaseline = map[string]benchInternRow{
	"shared_dfa_hit":     {NsOp: 259, Allocs: 5},
	"shared_ops_hit":     {NsOp: 474, Allocs: 9},
	"proof_memo_hit":     {NsOp: 1426, Allocs: 24},
	"canonical_goal_key": {NsOp: 1246, Allocs: 23},
}

// TestWriteBenchInternJSON measures the warm-hit benchmarks and writes
// BENCH_intern.json (driven by `make bench-intern`, which sets
// BENCH_INTERN_JSON to the output path; skipped otherwise).  The regression
// guards are asserted, not just reported: the ops-memo and proof-memo warm
// hits must be allocation-free, and every path must beat its string-keyed
// baseline.
func TestWriteBenchInternJSON(t *testing.T) {
	path := os.Getenv("BENCH_INTERN_JSON")
	if path == "" {
		t.Skip("set BENCH_INTERN_JSON to an output path (make bench-intern) to run")
	}
	report := benchInternReport{
		Baseline: internBaseline,
		Current:  make(map[string]benchInternRow),
	}
	for name, bench := range map[string]func(*testing.B){
		"shared_dfa_hit":     BenchmarkSharedCacheDFAHit,
		"shared_ops_hit":     BenchmarkSharedCacheOpsHit,
		"proof_memo_hit":     BenchmarkProofMemoHit,
		"canonical_goal_key": BenchmarkCanonicalGoalKey,
	} {
		r := testing.Benchmark(bench)
		report.Current[name] = benchInternRow{NsOp: r.NsPerOp(), Allocs: r.AllocsPerOp()}
	}

	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s:\n%s", path, data)

	for _, name := range []string{"shared_ops_hit", "proof_memo_hit", "canonical_goal_key"} {
		if got := report.Current[name].Allocs; got != 0 {
			t.Errorf("%s allocates %d per warm hit, want 0", name, got)
		}
	}
	for name, cur := range report.Current {
		if base := report.Baseline[name]; cur.NsOp >= base.NsOp {
			t.Errorf("%s warm hit %dns/op is not faster than the string-keyed baseline %dns/op", name, cur.NsOp, base.NsOp)
		}
	}
}
