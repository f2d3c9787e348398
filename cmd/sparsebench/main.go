// Command sparsebench regenerates Figure 7: speedups of the parallelized
// sparse-matrix kernels (partial vs full analysis) on the simulated
// multiprocessor, for the paper's 1000×1000 / N=10,000 configuration.
//
//	sparsebench                        the paper's configuration
//	sparsebench -pattern grid -n 900   a 30×30 grid Laplacian instead
//	sparsebench -sweep                 size/pattern sweep of the 7-PE column
//	sparsebench -detail                per-phase work breakdown
//	sparsebench -live 4 -stats         also factor on 4 real workers, with metrics
//	sparsebench -live 4 -http :6060    serve pprof + /metrics.json while (and after) running
//	sparsebench -certify 4 -stats      first prove the kernel's loops DOALL-legal
//	                                   through the batched dependence engine
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	_ "net/http/pprof"
	"os"

	"repro/internal/analysis"
	"repro/internal/cliutil"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/lang"
	"repro/internal/parallel"
	"repro/internal/prover"
	"repro/internal/sched"
	"repro/internal/sparse"
	"repro/internal/telemetry"
	"repro/internal/wire"
)

func main() {
	n := flag.Int("n", 1000, "matrix dimension")
	nnz := flag.Int("nnz", 10000, "approximate nonzeros (the paper's N; circuit pattern only)")
	pattern := flag.String("pattern", "circuit", "workload pattern: circuit | grid")
	seed := flag.Int64("seed", 1994, "workload random seed")
	barrier := flag.Int64("barrier", sched.DefaultBarrierCost, "per-phase synchronization cost in work units")
	sweep := flag.Bool("sweep", false, "sweep sizes and patterns, reporting 7-PE speedups")
	detail := flag.Bool("detail", false, "print the per-phase work breakdown")
	live := flag.Int("live", 0, "also run the full factorization live on this many goroutine workers")
	certify := flag.Int("certify", 0, "first certify the sparse kernel's loops DOALL-legal through the batched dependence engine on this many `workers` (0 = skip)")
	httpAddr := flag.String("http", "", "serve net/http/pprof and the metrics snapshot (/metrics.json) on this `address`, keeping the process alive after the run")
	var tf cliutil.TelemetryFlags
	tf.Register(flag.CommandLine)
	flag.Parse()

	if *httpAddr != "" {
		tf.EnsureRegistry()
	}
	tel, err := tf.Open()
	if err != nil {
		fmt.Fprintln(os.Stderr, "sparsebench:", err)
		os.Exit(2)
	}
	if *httpAddr != "" {
		reg := tf.Registry()
		http.HandleFunc("/metrics.json", func(w http.ResponseWriter, r *http.Request) {
			wire.WriteJSON(w, http.StatusOK, reg.Snapshot())
		})
		go func() {
			if err := http.ListenAndServe(*httpAddr, nil); err != nil {
				fmt.Fprintln(os.Stderr, "sparsebench: http:", err)
			}
		}()
		fmt.Fprintf(os.Stderr, "serving /debug/pprof and /metrics.json on %s\n", *httpAddr)
	}

	if *sweep {
		runSweep(*seed, *barrier)
		finish(&tf, *httpAddr)
		return
	}

	if *certify > 0 {
		if err := runCertify(*certify, tel, os.Stdout, os.Stderr); err != nil {
			fmt.Fprintln(os.Stderr, "certify:", err)
			os.Exit(1)
		}
	}

	m, desc := build(*pattern, *n, *nnz, *seed)
	fmt.Printf("workload: %s, %d nonzeros\n", desc, m.NNZ())

	lu, err := m.Factor()
	if err != nil {
		fmt.Fprintln(os.Stderr, "factor:", err)
		os.Exit(1)
	}
	fmt.Printf("factor: %d fill-ins, %d total elements\n", lu.Trace.Fills, lu.M.NNZ())
	if *detail {
		printDetail(lu.Trace)
	}
	if *live > 0 {
		if err := runLive(m, *live, tel, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "live factor:", err)
			os.Exit(1)
		}
	}

	w := sched.Workload{Scale: m.ScaleTrace(), Factor: lu.Trace, Solve: lu.SolveTrace()}
	pes := []int{2, 4, 7}
	rows := sched.Figure7(w, pes, *barrier)
	fmt.Println()
	fmt.Print(sched.RenderTable(
		fmt.Sprintf("Figure 7 — sparse matrix speedup results (%s, barrier=%d)", desc, *barrier),
		rows, pes))
	fmt.Println()
	fmt.Println("paper reported (1000×1000, N=10,000 on an 8-PE Sequent):")
	fmt.Println("                                    2 PEs  4 PEs  7 PEs")
	fmt.Println("Factor only (partial)                 1.7    2.5    3.1")
	fmt.Println("Scale, Factor, Solve (partial)        1.7    2.4    3.0")
	fmt.Println("Factor only (full)                    1.8    3.3    5.2")
	fmt.Println("Scale, Factor, Solve (full)           1.8    3.3    5.2")
	finish(&tf, *httpAddr)
}

// runLive executes the factorization on real goroutines (the live
// counterpart of the simulated Figure 7 run), feeding the pool's worker and
// per-phase telemetry.
func runLive(m *sparse.Matrix, workers int, tel *telemetry.Set, stdout io.Writer) error {
	pool := parallel.NewPool(workers).SetTelemetry(tel)
	lu, err := m.FactorParallel(pool, true)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "live factor (%d workers, full analysis): %d fill-ins, %d total elements\n",
		workers, lu.Trace.Fills, lu.M.NNZ())
	return nil
}

// kernelSrc is the paper's §5 sparse-matrix kernel in mini-C: an
// orthogonal-list element structure with the acyclicity/injectivity axioms,
// the row- and column-scaling writers.  runCertify proves
// their loops DOALL-legal before the benchmark trusts parallel execution.
const kernelSrc = `
struct Elem {
	struct Elem *ncolE;
	struct Elem *nrowE;
	double val;
	axioms {
		A1: forall p <> q, p.ncolE <> q.ncolE;
		A2: forall p, p.ncolE+ <> p.nrowE+;
		A3: forall p, p.(ncolE|nrowE)+ <> p.eps;
		A4: forall p <> q, p.nrowE <> q.nrowE;
	}
};

void scaleRows(struct Elem *first) {
	struct Elem *r;
	struct Elem *e;
	r = first;
	while (r != NULL) {
		e = r->ncolE;
		while (e != NULL) {
S:			e->val = e->val * 2.0;
			e = e->ncolE;
		}
		r = r->nrowE;
	}
}

void scaleCols(struct Elem *first) {
	struct Elem *c;
	struct Elem *e;
	c = first;
	while (c != NULL) {
		e = c->nrowE;
		while (e != NULL) {
T:			e->val = e->val * 0.5;
			e = e->nrowE;
		}
		c = c->ncolE;
	}
}
`

// runCertify is the legality gate in front of the parallel benchmark: it
// extracts every loop-carried dependence query from the §5 kernel (both
// orientations of each pair — the engine's canonicalized memo answers the
// swap from cache) and requires the batched engine to answer No across the
// board.  With -stats the shared-cache hit rates land on stderr, making the
// batching win observable next to the factorization metrics.
func runCertify(workers int, tel *telemetry.Set, stdout, stderr io.Writer) error {
	prog, err := lang.Parse(kernelSrc)
	if err != nil {
		return err
	}
	var queries []core.Query
	for _, fn := range []struct{ name, label string }{
		{"scaleRows", "S"},
		{"scaleCols", "T"},
	} {
		res, err := analysis.Analyze(prog, fn.name, analysis.Options{Telemetry: tel})
		if err != nil {
			return fmt.Errorf("%s: %w", fn.name, err)
		}
		qs, err := res.LoopCarriedQueries(fn.label)
		if err != nil {
			return fmt.Errorf("%s: %w", fn.name, err)
		}
		for _, q := range qs {
			queries = append(queries, q, q.Swapped())
		}
	}

	eng := engine.New(engine.Options{
		Workers:   workers,
		Prover:    prover.Options{Telemetry: tel},
		Telemetry: tel,
	})
	outs := eng.Batch(context.Background(), queries)
	for i, out := range outs {
		if out.Result != core.No {
			return fmt.Errorf("query %d (%v vs %v) answered %v: %s — refusing to certify DOALL legality",
				i, queries[i].S, queries[i].T, out.Result, out.Reason)
		}
	}
	fmt.Fprintf(stdout, "certify: %d loop-carried queries answered No on %d workers — the kernel's loops are DOALL-legal\n",
		len(outs), eng.Workers())
	if tel.Enabled() {
		memo, dfa := eng.Memo().Stats(), eng.DFACache().Stats()
		fmt.Fprintf(stderr, "certify: proof memo %d/%d hits (%.0f%%), shared DFA cache %d/%d hits\n",
			memo.Hits, memo.Lookups, 100*memo.HitRate(),
			dfa.Hits, dfa.Lookups)
	}
	return nil
}

// finish flushes telemetry and, when an HTTP endpoint is up, parks the
// process so the profiles stay inspectable.
func finish(tf *cliutil.TelemetryFlags, httpAddr string) {
	if err := tf.Close(os.Stderr, nil); err != nil {
		fmt.Fprintln(os.Stderr, "sparsebench:", err)
		os.Exit(1)
	}
	if httpAddr != "" {
		fmt.Fprintf(os.Stderr, "run complete; still serving %s (interrupt to exit)\n", httpAddr)
		select {}
	}
}

func build(pattern string, n, nnz int, seed int64) (*sparse.Matrix, string) {
	switch pattern {
	case "circuit":
		rng := rand.New(rand.NewSource(seed))
		return sparse.RandomCircuit(rng, n, nnz),
			fmt.Sprintf("%d×%d circuit pattern (N≈%d)", n, n, nnz)
	case "grid":
		side := 1
		for side*side < n {
			side++
		}
		return sparse.GridLaplacian(side),
			fmt.Sprintf("%d×%d grid Laplacian (%d×%d mesh)", side*side, side*side, side, side)
	}
	fmt.Fprintf(os.Stderr, "sparsebench: unknown pattern %q\n", pattern)
	os.Exit(2)
	return nil, ""
}

func printDetail(tr *sparse.Trace) {
	var h, s, a, f, e int64
	for _, st := range tr.Steps {
		h += st.Heuristic.Total()
		s += st.Search.Total()
		a += int64(st.Adjust)
		f += st.Fillin.Total()
		e += st.Elim.Total()
	}
	total := h + s + a + f + e
	pct := func(x int64) float64 { return 100 * float64(x) / float64(total) }
	fmt.Printf("phase work: heuristic %.1f%%, search %.1f%%, adjust %.1f%%, fillin %.1f%%, elim %.1f%% (total %d units)\n",
		pct(h), pct(s), pct(a), pct(f), pct(e), total)
}

func runSweep(seed, barrier int64) {
	fmt.Printf("%-38s %8s %8s %10s %10s\n", "workload", "nnz", "fills", "partial@7", "full@7")
	type cfg struct {
		pattern string
		n, nnz  int
	}
	cfgs := []cfg{
		{"circuit", 250, 2500},
		{"circuit", 500, 5000},
		{"circuit", 1000, 10000},
		{"circuit", 1000, 20000},
		{"grid", 400, 0},
		{"grid", 900, 0},
	}
	for _, c := range cfgs {
		m, desc := build(c.pattern, c.n, c.nnz, seed)
		lu, err := m.Factor()
		if err != nil {
			fmt.Printf("%-38s factor failed: %v\n", desc, err)
			continue
		}
		partial := sched.Speedup(lu.Trace, 7, sched.Partial, barrier)
		full := sched.Speedup(lu.Trace, 7, sched.Full, barrier)
		fmt.Printf("%-38s %8d %8d %10.1f %10.1f\n", desc, m.NNZ(), lu.Trace.Fills, partial, full)
	}
	fmt.Println("\nshape invariant: full ≥ partial at every configuration (the paper's headline).")
}
