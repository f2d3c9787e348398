// Command aptc is the offline automata compiler: it builds the DFA and
// decision-memo working set a serving process would otherwise compile on
// its first queries, and writes it as a versioned, checksummed, mmap-able
// artifact (see internal/automata's artifact format).  aptserved, aptlint,
// and aptdep load the artifact with -preload and boot warm.
//
// Two compilation modes:
//
//	aptc -library LeafLinkedBinaryTree -o llbt.aptc
//	    Compile a builtin axiom library: every axiom expression's minimized
//	    DFA over the library's full field alphabet, plus precomputed
//	    Includes/Disjoint/Equivalent decisions for the library's goal pairs.
//
//	aptc -program prog.c -queries q.txt -o prog.aptc
//	    Replay mode: analyze the program, run the query file through the
//	    batched engine exactly as aptserved would, and snapshot the engine's
//	    shared cache — the precise working set of that serving workload.
//
//	aptc -axioms axioms.txt -o custom.aptc
//	    Like -library, for an axiom set parsed from a file.
//
// -verify re-reads the written artifact and checks it decodes byte-identical
// to the in-memory snapshot before exiting.
//
// Exit status: 0 on success, 1 on verification failure, 2 on usage errors.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"reflect"
	"sort"
	"strings"

	"repro/internal/analysis"
	"repro/internal/automata"
	"repro/internal/axiom"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/lang"
	"repro/internal/pathexpr"
	"repro/internal/prover"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// libraries maps -library names to their builtin constructors, using the
// same field spellings the examples and benchmarks use.
var libraries = map[string]func() *axiom.Set{
	"SinglyLinkedList":       func() *axiom.Set { return axiom.SinglyLinkedList("next") },
	"CircularList":           func() *axiom.Set { return axiom.CircularList("next") },
	"DoublyLinkedList":       func() *axiom.Set { return axiom.DoublyLinkedList("next", "prev") },
	"CyclicDoublyLinkedRing": func() *axiom.Set { return axiom.CyclicDoublyLinkedRing("next", "prev") },
	"BinaryTree":             func() *axiom.Set { return axiom.BinaryTree("l", "r") },
	"LeafLinkedBinaryTree":   axiom.LeafLinkedBinaryTree,
	"SparseMatrixCore":       axiom.SparseMatrixCore,
	"SparseMatrix":           axiom.SparseMatrix,
	"SkipList":               func() *axiom.Set { return axiom.SkipList("n0", "n1") },
	"BPlusTree":              func() *axiom.Set { return axiom.BPlusTree("next", "c0", "c1") },
	"ChainedHashTable":       func() *axiom.Set { return axiom.ChainedHashTable("next", "b0", "b1") },
	"UnionFindForest":        func() *axiom.Set { return axiom.UnionFindForest("parent") },
	"Deque":                  func() *axiom.Set { return axiom.Deque("next", "prev") },
	"TwoDRangeTree":          axiom.TwoDRangeTree,
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("aptc", flag.ContinueOnError)
	fs.SetOutput(stderr)
	library := fs.String("library", "", "builtin axiom library `name` to compile (see -list)")
	list := fs.Bool("list", false, "list builtin library names and exit")
	axiomFile := fs.String("axioms", "", "axiom-set `file` to compile (one axiom per line)")
	program := fs.String("program", "", "mini-C source `file` for replay mode")
	queries := fs.String("queries", "", "query `file` (between S T | cross S T | loop U) replayed through the engine")
	fn := fs.String("fn", "", "function to analyze in -program mode (default: the only function)")
	out := fs.String("o", "", "output artifact `path` (required)")
	workers := fs.Int("workers", 1, "engine pool `width` for replay mode")
	verify := fs.Bool("verify", false, "re-read the written artifact and check it matches the snapshot")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fatalf := func(format string, fargs ...any) int {
		fmt.Fprintf(stderr, "aptc: "+format+"\n", fargs...)
		return 2
	}
	if *list {
		names := make([]string, 0, len(libraries))
		for n := range libraries {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Fprintln(stdout, n)
		}
		return 0
	}
	if *out == "" {
		return fatalf("-o is required")
	}
	modes := 0
	for _, on := range []bool{*library != "", *axiomFile != "", *program != ""} {
		if on {
			modes++
		}
	}
	if modes != 1 {
		return fatalf("pick exactly one of -library, -axioms, -program")
	}

	var art *automata.Artifact
	switch {
	case *program != "":
		if *queries == "" {
			return fatalf("-program mode needs -queries")
		}
		a, err := replaySnapshot(*program, *queries, *fn, *workers)
		if err != nil {
			return fatalf("%v", err)
		}
		art = a
	case *library != "":
		mk, ok := libraries[*library]
		if !ok {
			return fatalf("unknown library %q (see -list)", *library)
		}
		art = librarySnapshot(mk())
	case *axiomFile != "":
		src, err := os.ReadFile(*axiomFile)
		if err != nil {
			return fatalf("%v", err)
		}
		set, err := axiom.ParseSet(strings.TrimSuffix(*axiomFile, ".txt"), string(src))
		if err != nil {
			return fatalf("%s: %v", *axiomFile, err)
		}
		art = librarySnapshot(set)
	}

	if err := art.Save(*out); err != nil {
		return fatalf("write %s: %v", *out, err)
	}
	st, err := os.Stat(*out)
	if err != nil {
		return fatalf("%v", err)
	}
	fmt.Fprintf(stdout, "aptc: wrote %s: %d DFAs, %d decisions, %d proof verdicts, %d axiom sets, %d alphabets, %d exprs, %d bytes\n",
		*out, len(art.DFAs), len(art.Ops), len(art.Goals), len(art.AxiomSets), len(art.Alphabets), len(art.Exprs), st.Size())

	if *verify {
		back, err := automata.LoadArtifact(*out)
		if err != nil {
			fmt.Fprintf(stderr, "aptc: verify: %v\n", err)
			return 1
		}
		defer back.Close()
		if !artifactsEqual(art, back) {
			fmt.Fprintf(stderr, "aptc: verify: round-tripped artifact differs from snapshot\n")
			return 1
		}
		fmt.Fprintf(stdout, "aptc: verify: round-trip ok\n")
	}
	return 0
}

// librarySnapshot compiles an axiom set's working set into a fresh shared
// cache: the minimized DFA of every axiom expression (and ε) over the
// library's full field alphabet, plus every Includes/Disjoint/Equivalent
// decision over the library's goal pairs.
func librarySnapshot(set *axiom.Set) *automata.Artifact {
	cache := automata.NewSharedCache(0, 0, 0)
	alpha := automata.NewAlphabet(set.Fields()...)
	seen := map[uint64]bool{}
	var exprs []pathexpr.Expr
	add := func(e pathexpr.Expr) {
		id := pathexpr.InternID(e)
		if !seen[id] {
			seen[id] = true
			exprs = append(exprs, e)
		}
	}
	add(pathexpr.Eps)
	for _, a := range set.Axioms {
		add(a.RE1)
		add(a.RE2)
	}
	for _, e := range exprs {
		cache.DFA(e, alpha) //nolint:errcheck // a blown budget just leaves that entry out
	}
	for _, x := range exprs {
		for _, y := range exprs {
			cache.Includes(x, y, alpha)   //nolint:errcheck
			cache.Disjoint(x, y, alpha)   //nolint:errcheck
			cache.Equivalent(x, y, alpha) //nolint:errcheck
		}
	}
	art := cache.Snapshot()
	engine.AppendAxiomSet(art, set)
	return art
}

// replaySnapshot analyzes the program, expands the query file, runs it
// through the batched engine, and snapshots the engine's working set —
// the DFAs, boolean decisions, and proof-memo verdicts the same workload
// needs at serve time.
func replaySnapshot(programFile, queryFile, fn string, workers int) (*automata.Artifact, error) {
	src, err := os.ReadFile(programFile)
	if err != nil {
		return nil, err
	}
	prog, err := lang.Parse(string(src))
	if err != nil {
		return nil, fmt.Errorf("%s: %v", programFile, err)
	}
	if fn == "" {
		if len(prog.Funcs) != 1 {
			return nil, fmt.Errorf("%s has %d functions; pick one with -fn", programFile, len(prog.Funcs))
		}
		fn = prog.Funcs[0].Name
	}
	res, err := analysis.Analyze(prog, fn, analysis.Options{InferTypeAxioms: true})
	if err != nil {
		return nil, fmt.Errorf("analyze: %v", err)
	}
	qsrc, err := os.ReadFile(queryFile)
	if err != nil {
		return nil, err
	}
	qs, err := parseQueryFile(string(qsrc), res)
	if err != nil {
		return nil, err
	}
	eng := engine.New(res.Axioms, engine.Options{
		Workers: workers,
		Prover:  prover.Options{},
	})
	eng.Batch(context.Background(), qs)
	art := eng.SnapshotArtifact()
	// Record the workload itself, so a -preload server can replay it through
	// its own request path at boot and open its listener fully warm.
	art.Replays = append(art.Replays, automata.ArtifactReplay{
		Program: string(src),
		Fn:      fn,
		Queries: queryLines(string(qsrc)),
	})
	return art, nil
}

// queryLines returns the query file's effective lines (comments and blanks
// stripped) — the same lines a /v1/batch client sends verbatim as
// BatchRequest.Queries.
func queryLines(src string) []string {
	var out []string
	for _, line := range strings.Split(src, "\n") {
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		if strings.TrimSpace(line) != "" {
			out = append(out, line)
		}
	}
	return out
}

// parseQueryFile expands a query file against the analysis result.  Same
// grammar as aptdep -batch and aptserved's /v1/batch: blank lines and '#'
// comments skipped, each line "between S T", "cross S T", or "loop U".
func parseQueryFile(src string, res *analysis.Result) ([]core.Query, error) {
	var out []core.Query
	for n, line := range strings.Split(src, "\n") {
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		var (
			qs  []core.Query
			err error
		)
		switch {
		case fields[0] == "between" && len(fields) == 3:
			qs, err = res.QueriesBetween(fields[1], fields[2])
		case fields[0] == "cross" && len(fields) == 3:
			qs, err = res.LoopCarriedBetween(fields[1], fields[2])
		case fields[0] == "loop" && len(fields) == 2:
			qs, err = res.LoopCarriedQueries(fields[1])
		default:
			return nil, fmt.Errorf("query file line %d: want 'between S T', 'cross S T', or 'loop U', got %q",
				n+1, strings.TrimSpace(line))
		}
		if err != nil {
			return nil, fmt.Errorf("query file line %d: %w", n+1, err)
		}
		out = append(out, qs...)
	}
	return out, nil
}

// artifactsEqual compares two decoded artifacts structurally (the mmap
// backing of the loaded one is irrelevant to equality).
func artifactsEqual(a, b *automata.Artifact) bool {
	return reflect.DeepEqual(a.Alphabets, b.Alphabets) &&
		reflect.DeepEqual(a.Exprs, b.Exprs) &&
		reflect.DeepEqual(a.DFAs, b.DFAs) &&
		reflect.DeepEqual(a.Ops, b.Ops) &&
		reflect.DeepEqual(a.Sigs, b.Sigs) &&
		reflect.DeepEqual(a.Goals, b.Goals) &&
		reflect.DeepEqual(a.AxiomSets, b.AxiomSets) &&
		reflect.DeepEqual(a.Replays, b.Replays)
}
