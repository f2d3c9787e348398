package analysis

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/automata"
	"repro/internal/lang"
)

// TestFrontEndAllocations is the allocation guard for a program-mode
// request's front end, the way the server runs it once its caches are warm:
// parse testdata/determinism/walk.c, analyze it borrowing a DFA cache that
// an earlier analysis filled, and expand walk.q into its queries.  The
// front end should allocate what it returns (the AST, the accesses, the
// queries) and little else.
func TestFrontEndAllocations(t *testing.T) {
	src, err := os.ReadFile("../../testdata/determinism/walk.c")
	if err != nil {
		t.Fatal(err)
	}
	q, err := os.ReadFile("../../testdata/determinism/walk.q")
	if err != nil {
		t.Fatal(err)
	}
	program, lines := string(src), strings.Split(string(q), "\n")
	where := func(n int) string { return fmt.Sprintf("walk.q:%d", n+1) }
	opts := Options{InferTypeAxioms: true, DFACache: automata.NewSharedCache(1, 0)}
	var queries int
	run := func() {
		prog, err := lang.Parse(program)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Analyze(prog, "walk", opts)
		if err != nil {
			t.Fatal(err)
		}
		qs, _, err := res.ExpandQueryLines(lines, where)
		if err != nil {
			t.Fatal(err)
		}
		queries = len(qs)
	}
	run() // fill the borrowed cache: the measured runs analyze warm
	if queries != 22 {
		t.Fatalf("walk.q expanded to %d queries, want 22", queries)
	}
	const budget = 500
	if got := testing.AllocsPerRun(20, run); got > budget {
		t.Errorf("parse + analyze + expand made %.0f allocations, budget %d", got, budget)
	} else {
		t.Logf("parse + analyze + expand: %.0f allocations (budget %d)", got, budget)
	}
}
