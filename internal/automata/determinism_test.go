package automata_test

import (
	"context"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/automata"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/lang"
)

// TestSharedCacheContentsScheduleIndependent runs walk.{c,q} through an
// engine with a fresh borrowed DFA cache, once at one worker, once at one
// worker over the reversed queries, and five times at four, and demands the
// same cache contents every time: the same DFAs with the same tables, and
// the same decisions with the same values.
// Which worker reaches a goal first must not decide what gets compiled.
func TestSharedCacheContentsScheduleIndependent(t *testing.T) {
	for _, w := range []string{"walk", "swap"} {
		t.Run(w, func(t *testing.T) { sharedCacheContents(t, workloadQueries(t, w)) })
	}
}

func sharedCacheContents(t *testing.T, queries []core.Query) {
	run := func(workers int, queries []core.Query) string {
		cache := automata.NewSharedCache(0, 0)
		eng := engine.New(engine.Options{Workers: workers, DFACache: cache, Memo: core.NewMemo(0, 0, nil)})
		eng.Batch(context.Background(), queries)
		return automata.DumpSharedCache(cache)
	}
	want := run(1, queries)
	if want == "" {
		t.Fatal("the workload left the DFA cache empty; the comparison would be vacuous")
	}
	// The 4-worker runs leave only the order between chunks to the
	// scheduler, and two callers of one goal may share a chunk; a 1-worker
	// run over the reversed queries makes them arrive the other way round
	// for certain.
	if got := run(1, reversed(queries)); got != want {
		t.Fatalf("reversed queries at 1 worker: DFA cache contents differ from the in-order run\nin order:\n%s\nreversed:\n%s", want, got)
	}
	for i := 0; i < 5; i++ {
		if got := run(4, queries); got != want {
			t.Fatalf("run %d at 4 workers: DFA cache contents differ from the 1-worker run\n1 worker:\n%s\n4 workers:\n%s", i+1, want, got)
		}
	}
}

// reversed returns the queries in reverse order.
func reversed(qs []core.Query) []core.Query {
	out := make([]core.Query, len(qs))
	for i, q := range qs {
		out[len(qs)-1-i] = q
	}
	return out
}

// workloadQueries analyzes testdata/determinism/<name>.c, whose function
// shares its name, and expands <name>.q.
func workloadQueries(t *testing.T, name string) []core.Query {
	t.Helper()
	src, err := os.ReadFile("../../testdata/determinism/" + name + ".c")
	if err != nil {
		t.Fatal(err)
	}
	qsrc, err := os.ReadFile("../../testdata/determinism/" + name + ".q")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := lang.Parse(string(src))
	if err != nil {
		t.Fatal(err)
	}
	res, err := analysis.Analyze(prog, name, analysis.Options{InferTypeAxioms: true})
	if err != nil {
		t.Fatal(err)
	}
	qs, _, err := res.ExpandQueryLines(strings.Split(string(qsrc), "\n"), func(n int) string {
		return fmt.Sprintf("%s.q:%d", name, n+1)
	})
	if err != nil {
		t.Fatal(err)
	}
	return qs
}
