package sparse

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/parallel"
	"repro/internal/telemetry"
)

// sameLU asserts two factorizations are identical: pivots, structure, and
// bitwise-equal values.
func sameLU(t *testing.T, a, b *LU) {
	t.Helper()
	if len(a.PRow) != len(b.PRow) {
		t.Fatalf("pivot counts differ: %d vs %d", len(a.PRow), len(b.PRow))
	}
	for k := range a.PRow {
		if a.PRow[k] != b.PRow[k] || a.PCol[k] != b.PCol[k] {
			t.Fatalf("pivot %d differs: (%d,%d) vs (%d,%d)", k, a.PRow[k], a.PCol[k], b.PRow[k], b.PCol[k])
		}
	}
	if a.M.NNZ() != b.M.NNZ() {
		t.Fatalf("element counts differ: %d vs %d", a.M.NNZ(), b.M.NNZ())
	}
	for i := 0; i < a.M.N; i++ {
		ea, eb := a.M.RowHeader(i).First, b.M.RowHeader(i).First
		for ea != nil && eb != nil {
			if ea.Col != eb.Col || ea.Val != eb.Val {
				t.Fatalf("row %d: (%d, %v) vs (%d, %v)", i, ea.Col, ea.Val, eb.Col, eb.Val)
			}
			ea, eb = ea.NextInRow, eb.NextInRow
		}
		if ea != nil || eb != nil {
			t.Fatalf("row %d lengths differ", i)
		}
	}
}

// TestFactorParallelMatchesSequential: the live parallel execution produces
// bitwise-identical factors in both partial and full modes, at several pool
// widths — the correctness claim behind the Figure 7 transformation.
func TestFactorParallelMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for trial := 0; trial < 4; trial++ {
		n := 30 + rng.Intn(50)
		m := RandomCircuit(rng, n, 6*n)
		seq, err := m.Factor()
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 2, 4, 7} {
			for _, full := range []bool{false, true} {
				par, err := m.FactorParallel(parallel.NewPool(workers), full)
				if err != nil {
					t.Fatalf("workers=%d full=%v: %v", workers, full, err)
				}
				sameLU(t, seq, par)
				if par.Trace.Fills != seq.Trace.Fills {
					t.Errorf("workers=%d full=%v: fills %d vs %d", workers, full, par.Trace.Fills, seq.Trace.Fills)
				}
			}
		}
	}
}

// TestFactorParallelSolve: the parallel factors solve systems correctly.
func TestFactorParallelSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	m := RandomCircuit(rng, 60, 300)
	lu, err := m.FactorParallel(parallel.NewPool(4), true)
	if err != nil {
		t.Fatal(err)
	}
	xTrue := make([]float64, 60)
	for i := range xTrue {
		xTrue[i] = rng.NormFloat64()
	}
	x := lu.Solve(m.MulVec(xTrue))
	for i := range x {
		if d := x[i] - xTrue[i]; d > 1e-8 || d < -1e-8 {
			t.Fatalf("x[%d] = %v, want %v", i, x[i], xTrue[i])
		}
	}
}

func TestFactorParallelSingular(t *testing.T) {
	m := New(2)
	m.Set(0, 0, 1)
	if _, err := m.FactorParallel(parallel.NewPool(2), true); err == nil {
		t.Fatal("expected singular error")
	}
}

// TestFactorParallelTelemetry: a telemetry-carrying pool yields per-phase
// timings, worker metrics, and a factorization trace event — and the factors
// themselves are unchanged by the instrumentation.
func TestFactorParallelTelemetry(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	m := RandomCircuit(rng, 50, 250)
	seq, err := m.Factor()
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	reg := telemetry.NewRegistry()
	pool := parallel.NewPool(4).SetTelemetry(telemetry.New(reg, telemetry.NewStreamingTrace(telemetry.NewTraceWriter(&buf))))
	par, err := m.FactorParallel(pool, true)
	if err != nil {
		t.Fatal(err)
	}
	sameLU(t, seq, par)

	snap := reg.Snapshot()
	for _, h := range []string{
		"sparse.phase_heuristic_ns", "sparse.phase_search_ns", "sparse.phase_adjust_ns",
		"sparse.phase_fillin_ns", "sparse.phase_elim_ns",
	} {
		hs, ok := snap.Hists[h]
		if !ok || hs.Count != 1 {
			t.Errorf("histogram %s: count = %d, want 1", h, hs.Count)
		}
	}
	if snap.Counters["pool.forks"] == 0 || snap.Counters["pool.chunks"] == 0 {
		t.Error("pool fork/chunk counters not recorded")
	}
	if snap.Hists["pool.worker_busy_ns"].Count == 0 {
		t.Error("no worker busy samples")
	}

	found := false
	for _, ln := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var ev map[string]any
		if err := json.Unmarshal([]byte(ln), &ev); err != nil {
			t.Fatalf("trace line not JSON: %v\n%s", err, ln)
		}
		if ev["ev"] == "sparse.factor_parallel" {
			found = true
			for _, k := range []string{"n", "nnz", "fills", "workers", "full",
				"heuristic_us", "search_us", "adjust_us", "fillin_us", "elim_us"} {
				if _, ok := ev[k]; !ok {
					t.Errorf("sparse.factor_parallel missing %q: %v", k, ev)
				}
			}
			if ev["n"].(float64) != 50 || ev["workers"].(float64) != 4 || ev["full"] != true {
				t.Errorf("sparse.factor_parallel attrs wrong: %v", ev)
			}
		}
	}
	if !found {
		t.Error("no sparse.factor_parallel trace event")
	}
}
