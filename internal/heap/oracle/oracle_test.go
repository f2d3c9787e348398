package oracle

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/heap"
	"repro/internal/interp"
	"repro/internal/lang"
)

const listSrc = `
struct N {
	struct N *next;
	int v;
	axioms {
		A1: forall p, p.next+ <> p.eps;
	}
};

void touch(struct N *h, int w) {
	struct N *t;
	t = h->next;
	if (t == NULL) {
		return;
	}
	if (w) {
		U: t->v = 1;
	}
	if (!w) {
		S: h->v = t->v;
	}
}
`

func parse(t *testing.T, src string) *lang.Program {
	t.Helper()
	prog, err := lang.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// Sweep's argument order is part of its contract: the scenario farm's
// divergence details name the first conflicting run, so the order fixes
// which run a detail quotes.  Pointer choice is the outer loop with the
// first pointer parameter varying fastest; the 0/1 choice is the inner
// loop, bit k feeding the k-th non-pointer parameter.
func TestSweepArgumentOrder(t *testing.T) {
	prog := parse(t, `
struct N {
	struct N *next;
	int v;
};

void f(struct N *a, int x, struct N *b, int y) {
	S: a->v = x;
	T: b->v = y;
}
`)
	var got []string
	runs, err := Sweep(prog, "f", heap.New(2), func(r Run) bool {
		got = append(got, fmt.Sprintf("a=%d x=%v b=%d y=%v",
			r.Args[0].Vertex, r.Args[1].Num, r.Args[2].Vertex, r.Args[3].Num))
		if len(r.Trace.At("S")) != 1 || len(r.Trace.At("T")) != 1 {
			t.Errorf("run %v did not execute both labels", r.Args)
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for _, ab := range [][2]int{{0, 0}, {1, 0}, {0, 1}, {1, 1}} {
		for bits := 0; bits < 4; bits++ {
			want = append(want, fmt.Sprintf("a=%d x=%d b=%d y=%d", ab[0], bits&1, ab[1], bits>>1))
		}
	}
	if runs != len(want) || strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("%d runs in order:\n%s\nwant %d:\n%s", runs, strings.Join(got, "\n"), len(want), strings.Join(want, "\n"))
	}
}

// Each run gets its own clone: the swept heap is never mutated.
func TestSweepRunsOnClones(t *testing.T) {
	prog := parse(t, `
struct N {
	struct N *next;
	int v;
};

void f(struct N *h) {
	h->next = h;
}
`)
	g := heap.New(2)
	runs, err := Sweep(prog, "f", g, func(r Run) bool {
		if _, ok := r.Graph.Edge(r.Args[0].Vertex, "next"); !ok {
			t.Errorf("run %v: its graph lacks the edge it wrote", r.Args)
		}
		return true
	})
	if err != nil || runs != 2 {
		t.Fatalf("runs = %d, err = %v; want 2, nil", runs, err)
	}
	for v := 0; v < 2; v++ {
		if _, ok := g.Edge(heap.Vertex(v), "next"); ok {
			t.Errorf("swept heap was mutated at vertex %d", v)
		}
	}
}

// A failing run stops the sweep with a RunError naming its arguments.
func TestSweepRunError(t *testing.T) {
	prog := parse(t, `
struct N {
	struct N *next;
	int v;
};

void f(struct N *h, int w) {
	struct N *t;
	t = h->next;
	if (w) {
		S: t->v = 1;
	}
}
`)
	runs, err := Sweep(prog, "f", heap.New(1), func(Run) bool { return true })
	var re *RunError
	if !errors.As(err, &re) {
		t.Fatalf("err = %v, want a *RunError", err)
	}
	if runs != 1 || len(re.Args) != 2 || re.Args[0].Vertex != 0 || re.Args[1].Num != 1 {
		t.Fatalf("runs = %d, failing args %v; want 1 run, then a failure at h=0 w=1", runs, re.Args)
	}
	if _, err := Sweep(prog, "nope", heap.New(1), func(Run) bool { return true }); err == nil {
		t.Error("unknown function swept")
	}
}

func TestConflict(t *testing.T) {
	ev := func(v int, field string, write bool) interp.Event {
		return interp.Event{Vertex: heap.Vertex(v), Field: field, IsWrite: write}
	}
	for _, c := range []struct {
		name string
		a, b interp.Event
		want bool
	}{
		{"write-write", ev(0, "v", true), ev(0, "v", true), true},
		{"write-read", ev(1, "next", true), ev(1, "next", false), true},
		{"read-write", ev(1, "v", false), ev(1, "v", true), true},
		{"read-read", ev(0, "v", false), ev(0, "v", false), false},
		{"other vertex", ev(0, "v", true), ev(1, "v", true), false},
		{"other field", ev(0, "v", true), ev(0, "next", true), false},
		{"no field", ev(0, "", true), ev(0, "", true), false},
	} {
		if got := Conflict(c.a, c.b); got != c.want {
			t.Errorf("%s: Conflict = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestForEachRunCounts(t *testing.T) {
	prog := parse(t, listSrc)
	// Acyclic single-field heaps: n=1 has 1 conforming shape, n=2 has 3.
	// Each shape is run from every root under w ∈ {0, 1}:
	// 1·(1·2) + 3·(2·2) = 14 runs.
	runs, err := ForEachRun(prog, Config{MaxVertices: 2}, func(Run) bool { return true })
	if err != nil {
		t.Fatal(err)
	}
	if runs != 14 {
		t.Fatalf("runs = %d, want 14", runs)
	}
}

func TestForEachRunEarlyStop(t *testing.T) {
	prog := parse(t, listSrc)
	visited := 0
	runs, err := ForEachRun(prog, Config{MaxVertices: 2}, func(Run) bool {
		visited++
		return visited < 3
	})
	if err != nil {
		t.Fatal(err)
	}
	if visited != 3 || runs != 3 {
		t.Fatalf("visited %d runs (reported %d), want the sweep to stop after 3", visited, runs)
	}
}

func TestSweepLabelsExclusiveGuards(t *testing.T) {
	prog := parse(t, listSrc)
	res, err := SweepLabels(prog, "touch", "U", "S", 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.Runs == 0 {
		t.Fatal("sweep did no runs")
	}
	// U and S sit under opposite-polarity guards of an unchanging variable:
	// no single run reaches both.
	if res.BothReached || res.Conflict {
		t.Fatalf("exclusive guards: BothReached=%v Conflict=%v, want false/false", res.BothReached, res.Conflict)
	}
}

func TestSweepLabelsDetectsConflict(t *testing.T) {
	// Same-polarity variant: with w=1 both labels run and both touch t->v.
	src := strings.Replace(listSrc, "if (!w) {", "if (w) {", 1)
	prog := parse(t, src)
	res, err := SweepLabels(prog, "touch", "U", "S", 3)
	if err != nil {
		t.Fatal(err)
	}
	if !res.BothReached {
		t.Fatal("same-polarity guards: expected a run reaching both labels")
	}
	// U writes t->v, S reads t->v: same vertex, same field, one write.
	if !res.Conflict {
		t.Fatal("same-polarity guards: expected a conflicting access pair")
	}
}

func TestForEachRunEnumeratesAllPointerAssignments(t *testing.T) {
	src := `
struct N {
	struct N *next;
	int v;
	axioms {
		A1: forall p, p.next+ <> p.eps;
	}
};

void two(struct N *a, struct N *b) {
	A: a->v = 1;
	B: b->v = 2;
}
`
	prog := parse(t, src)
	type pair struct{ a, b int }
	seen := map[pair]bool{}
	_, err := ForEachRun(prog, Config{MaxVertices: 2, Fn: "two"}, func(r Run) bool {
		ea, eb := r.Trace.At("A"), r.Trace.At("B")
		if len(ea) == 1 && len(eb) == 1 {
			seen[pair{int(ea[0].Vertex), int(eb[0].Vertex)}] = true
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	// On the 2-vertex shapes each pointer parameter independently ranges
	// over both vertices — all four (a, b) assignments must appear, which
	// the old single-root sweep (same vertex for every pointer parameter)
	// could not produce.
	for _, want := range []pair{{0, 0}, {0, 1}, {1, 0}, {1, 1}} {
		if !seen[want] {
			t.Errorf("pointer assignment a=%d b=%d never executed", want.a, want.b)
		}
	}
}

func TestForEachRunErrors(t *testing.T) {
	prog := parse(t, listSrc)
	if _, err := ForEachRun(prog, Config{Fn: "nope"}, func(Run) bool { return true }); err == nil {
		t.Error("unknown function accepted")
	}

	noAxioms := parse(t, `
struct N {
	struct N *next;
	int v;
};

void f(struct N *h) {
	S: h->v = 1;
}
`)
	if _, err := ForEachRun(noAxioms, Config{}, func(Run) bool { return true }); err == nil {
		t.Error("axiom-free struct accepted — the oracle would sweep nothing meaningful")
	}

	// A runtime failure (null dereference with no guard) aborts the sweep.
	crash := parse(t, `
struct N {
	struct N *next;
	int v;
	axioms {
		A1: forall p, p.next+ <> p.eps;
	}
};

void f(struct N *h) {
	struct N *t;
	t = h->next;
	S: t->v = 1;
}
`)
	if _, err := ForEachRun(crash, Config{MaxVertices: 1}, func(Run) bool { return true }); err == nil {
		t.Error("null-dereferencing program swept without error")
	}
}
