// Command aptdep runs the full pipeline on a mini-C source file: parse,
// analyze access paths, and answer dependence queries between labeled
// statements.
//
// Examples:
//
//	aptdep -fn subr -from S -to T prog.c          straight-line dependence
//	aptdep -fn update -loop U prog.c              loop-carried dependence
//	aptdep -fn subr -apm prog.c                   dump the APM tables
//	aptdep -fn subr -batch queries.txt prog.c     many queries, one run
//	aptdep -stats -trace-json t.jsonl -fn subr -from S -to T prog.c
//
// A -batch file holds one query per line ('#' starts a comment):
//
//	between S T     every dependence query from statement S to statement T
//	cross S T       S at iteration i against T at a later iteration
//	loop U          the loop-carried self-dependence queries of label U
//
// Batch queries are answered by the concurrency-safe query engine
// (internal/engine): -workers sets the pool width, -timeout bounds each
// query's proof search (expiry degrades that query to Maybe), and -stats
// reports the shared-cache hit rates alongside the usual counters.
//
// Exit status: 0 when every query answered No, 1 when a dependence was found
// or assumed, 2 on usage or input errors.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro/internal/analysis"
	"repro/internal/cliutil"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/lang"
	"repro/internal/prover"
	"repro/internal/ptdp"
	"repro/internal/telemetry"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main without the process-global bindings, so tests can drive the
// whole CLI in-process.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("aptdep", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fn := fs.String("fn", "", "function to analyze (default: the only function)")
	from := fs.String("from", "", "label of statement S")
	to := fs.String("to", "", "label of statement T")
	loop := fs.String("loop", "", "label for a loop-carried self-dependence query")
	crossIter := fs.Bool("cross-iteration", false, "with -from/-to in one loop: compare S at iteration i against T at a later iteration")
	usePTDP := fs.Bool("ptdp", false, "run the named-variable points-to test instead of APT (Figure 1's left problem)")
	apm := fs.Bool("apm", false, "print the access path matrix at every label")
	trace := fs.Bool("trace", false, "print proof traces")
	assumeInv := fs.Bool("assume-invariants", false, "assume loops re-establish axioms despite structural modifications (the 'full' analysis of §5)")
	verify := fs.Bool("verify", false, "independently re-check every proof before trusting a No")
	batch := fs.String("batch", "", "`file` of queries (between S T | cross S T | loop U, one per line) answered by the batched engine")
	workers := fs.Int("workers", 1, "engine pool `width` for -batch")
	timeout := fs.Duration("timeout", 0, "per-query proof-search `bound` for -batch (0 = none; expiry degrades the query to Maybe)")
	var tf cliutil.TelemetryFlags
	tf.Register(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	fatalf := func(format string, fargs ...any) int {
		fmt.Fprintf(stderr, "aptdep: "+format+"\n", fargs...)
		return 2
	}
	if fs.NArg() != 1 {
		return fatalf("usage: aptdep [flags] file.c")
	}
	tel, err := tf.Open()
	if err != nil {
		return fatalf("%v", err)
	}
	phases := telemetry.NewPhases(tel)
	defer tf.Close(stderr, phases)

	var prog *lang.Program
	if err := phases.Run("parse", func(*telemetry.Set) error {
		src, err := os.ReadFile(fs.Arg(0))
		if err != nil {
			return err
		}
		prog, err = lang.Parse(string(src))
		return err
	}); err != nil {
		return fatalf("%v", err)
	}
	name := *fn
	if name == "" {
		if len(prog.Funcs) != 1 {
			return fatalf("file has %d functions; pick one with -fn", len(prog.Funcs))
		}
		name = prog.Funcs[0].Name
	}

	if *usePTDP {
		if *from == "" || *to == "" {
			return fatalf("-ptdp needs -from and -to")
		}
		r, err := ptdp.Analyze(prog, name)
		if err != nil {
			return fatalf("%v", err)
		}
		res, err := r.DepTest(*from, *to)
		if err != nil {
			return fatalf("%v", err)
		}
		fmt.Fprintf(stdout, "%v  (points-to intersection, %s → %s)\n", res, *from, *to)
		if env := r.PointsTo[*from]; env != nil {
			for v, pts := range env {
				fmt.Fprintf(stdout, "    at %s: %s -> %s\n", *from, v, pts)
			}
		}
		if res != core.No {
			return 1
		}
		return 0
	}

	var res *analysis.Result
	if err := phases.Run("analyze", func(set *telemetry.Set) error {
		var err error
		res, err = analysis.Analyze(prog, name, analysis.Options{
			InferTypeAxioms:      true,
			AssumeLoopInvariants: *assumeInv,
			Telemetry:            set,
		})
		return err
	}); err != nil {
		return fatalf("%v", err)
	}

	if *apm {
		for _, l := range res.Labels() {
			fmt.Fprintf(stdout, "at %s:\n%s\n", l, res.APM(l))
		}
		if *from == "" && *loop == "" {
			return 0
		}
	}

	if *batch != "" {
		return runBatch(batchConfig{
			file:    *batch,
			workers: *workers,
			timeout: *timeout,
			verify:  *verify,
			trace:   *trace,
			res:     res,
			tel:     tel,
			phases:  phases,
			tf:      &tf,
		}, stdout, stderr)
	}

	mode, a := "between", *from
	switch {
	case *loop != "":
		mode, a = "loop", *loop
	case *from == "" || *to == "":
		return fatalf("provide -from/-to or -loop")
	case *crossIter:
		mode = "cross"
	}
	var queries []core.Query
	if err := phases.Run("build-queries", func(*telemetry.Set) error {
		var err error
		queries, err = res.QueriesFor(mode, a, *to)
		return err
	}); err != nil {
		return fatalf("%v", err)
	}

	exit := 0
	phases.Run("deptest", func(set *telemetry.Set) error {
		tester := core.NewTester(res.Axioms, prover.Options{Telemetry: set})
		tester.VerifyProofs = *verify
		for _, q := range queries {
			out := tester.DepTest(q)
			fmt.Fprintf(stdout, "%v  [%s]  S: %v  T: %v\n    %s\n", out.Result, out.Kind, q.S, q.T, out.Reason)
			if *trace && out.Proof != nil {
				fmt.Fprintln(stdout, indent(out.Proof.Render()))
			}
			if out.Result != core.No {
				exit = 1
			}
		}
		return nil
	})
	if err := tf.Close(stderr, phases); err != nil {
		return fatalf("%v", err)
	}
	tf = cliutil.TelemetryFlags{} // deferred Close becomes a no-op
	return exit
}

// batchConfig carries everything runBatch needs from the main flag set.
type batchConfig struct {
	file    string
	workers int
	timeout time.Duration
	verify  bool
	trace   bool
	res     *analysis.Result
	tel     *telemetry.Set
	phases  *telemetry.Phases
	tf      *cliutil.TelemetryFlags
}

// runBatch answers a query file through the batched engine: every line
// expands to its dependence queries, the whole set runs in one
// engine.Batch call, and one result line per query is printed in file
// order.  Exit status follows the usual rule (0 iff every query is No).
func runBatch(cfg batchConfig, stdout, stderr io.Writer) int {
	fatalf := func(format string, fargs ...any) int {
		fmt.Fprintf(stderr, "aptdep: "+format+"\n", fargs...)
		return 2
	}
	var queries []core.Query
	if err := cfg.phases.Run("build-queries", func(*telemetry.Set) error {
		src, err := os.ReadFile(cfg.file)
		if err != nil {
			return err
		}
		queries, _, err = cfg.res.ExpandQueryLines(strings.Split(string(src), "\n"), func(n int) string {
			return fmt.Sprintf("batch file:%d", n+1)
		})
		return err
	}); err != nil {
		return fatalf("%v", err)
	}

	eng := engine.New(engine.Options{
		Workers:      cfg.workers,
		VerifyProofs: cfg.verify,
		Telemetry:    cfg.tel,
	})
	exit := 0
	cfg.phases.Run("deptest", func(set *telemetry.Set) error {
		for i, out := range eng.BatchTimeout(context.Background(), queries, cfg.timeout, set) {
			q := queries[i]
			fmt.Fprintf(stdout, "%v  [%s]  S: %v  T: %v\n    %s\n", out.Result, out.Kind, q.S, q.T, out.Reason)
			if cfg.trace && out.Proof != nil {
				fmt.Fprintln(stdout, indent(out.Proof.Render()))
			}
			if out.Result != core.No {
				exit = 1
			}
		}
		return nil
	})
	if cfg.tel.Enabled() {
		c := cfg.tel.Metrics().Snapshot().Counters
		hits, lookups := c["engine.memo_hits"], c["engine.memo_hits"]+c["engine.memo_misses"]
		rate := 0.0
		if lookups > 0 {
			rate = 100 * float64(hits) / float64(lookups)
		}
		fmt.Fprintf(stderr, "aptdep: batch: %d queries, %d workers; proof memo %d/%d hits (%.0f%%), shared DFA cache %d/%d hits, %d timeouts\n",
			c["engine.queries"], eng.Workers(),
			hits, lookups, rate,
			c["automata.shared_hits"], c["automata.shared_lookups"], c["engine.degraded.query_timeout"])
	}
	if err := cfg.tf.Close(stderr, cfg.phases); err != nil {
		return fatalf("%v", err)
	}
	*cfg.tf = cliutil.TelemetryFlags{} // deferred Close becomes a no-op
	return exit
}

func indent(s string) string {
	out := ""
	start := 0
	for i := 0; i <= len(s); i++ {
		if i == len(s) || s[i] == '\n' {
			if start < i {
				out += "    " + s[start:i] + "\n"
			}
			start = i + 1
		}
	}
	return out
}
