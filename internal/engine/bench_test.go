package engine

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"testing"

	"repro/internal/core"
	"repro/internal/prover"
)

// The benchmarks compare one cold batch against one cold sequential sweep
// over the same ~200-query workload: a fresh tester/engine per iteration,
// so neither side carries warm caches between iterations.  Both sides
// answer a swapped orientation from the first proof: the sequential
// tester keeps a proof memo of its own.  What the engine adds is its
// workers and the shared DFA cache, which compiles each goal automaton
// once across all four validity windows instead of once per window.

const benchSeed = 1

func BenchmarkSequentialWorkload(b *testing.B) {
	queries := Workload(benchSeed, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tester := core.NewTester(WorkloadWindows()[0], prover.Options{})
		for _, q := range queries {
			tester.DepTest(q)
		}
	}
}

func BenchmarkEngineWorkload(b *testing.B) {
	for _, workers := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			queries := Workload(benchSeed, 0)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				eng := New(Options{Workers: workers})
				eng.Batch(context.Background(), queries)
			}
		})
	}
}

// benchReport is the BENCH_engine.json schema.
type benchReport struct {
	Queries        int              `json:"queries"`
	SequentialNsOp int64            `json:"sequential_ns_op"`
	Engine         []benchEngineRow `json:"engine"`
}

type benchEngineRow struct {
	Workers     int     `json:"workers"`
	NsOp        int64   `json:"ns_op"`
	Speedup     float64 `json:"speedup_vs_sequential"`
	MemoHitRate float64 `json:"memo_hit_rate"`
	DFAHitRate  float64 `json:"dfa_hit_rate"`
}

// TestWriteBenchEngineJSON measures the engine-vs-sequential benchmark and
// writes BENCH_engine.json (driven by `make bench-json`, which sets
// BENCH_ENGINE_JSON to the output path; skipped otherwise).  The acceptance
// thresholds are asserted, not just reported: the 8-worker engine must beat
// the sequential sweep by ≥2× with a >50% shared-cache hit rate.
func TestWriteBenchEngineJSON(t *testing.T) {
	path := os.Getenv("BENCH_ENGINE_JSON")
	if path == "" {
		t.Skip("set BENCH_ENGINE_JSON to an output path (make bench-json) to run")
	}
	queries := Workload(benchSeed, 0)
	report := benchReport{Queries: len(queries)}

	seq := testing.Benchmark(BenchmarkSequentialWorkload)
	report.SequentialNsOp = seq.NsPerOp()

	for _, workers := range []int{1, 4, 8} {
		workers := workers
		r := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				eng := New(Options{Workers: workers})
				eng.Batch(context.Background(), queries)
			}
		})
		// Hit rates come from one untimed batch on a fresh engine — the
		// same cold-start shape the timing measured.
		eng, count := newCountedEngine(Options{Workers: workers})
		eng.Batch(context.Background(), queries)
		rate := func(hits, lookups int64) float64 {
			if lookups == 0 {
				return 0
			}
			return float64(hits) / float64(lookups)
		}
		memoHits := count("engine.memo_hits")
		report.Engine = append(report.Engine, benchEngineRow{
			Workers:     workers,
			NsOp:        r.NsPerOp(),
			Speedup:     float64(report.SequentialNsOp) / float64(r.NsPerOp()),
			MemoHitRate: rate(memoHits, memoHits+count("engine.memo_misses")),
			DFAHitRate:  rate(count("automata.shared_hits"), count("automata.shared_lookups")),
		})
	}

	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s:\n%s", path, data)

	last := report.Engine[len(report.Engine)-1]
	if last.Speedup < 2.0 {
		t.Errorf("8-worker engine speedup %.2f× < 2× over sequential", last.Speedup)
	}
	if last.MemoHitRate <= 0.5 {
		t.Errorf("8-worker memo hit rate %.0f%% ≤ 50%%", 100*last.MemoHitRate)
	}
}
