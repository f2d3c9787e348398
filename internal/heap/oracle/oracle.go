// Package oracle is the bounded small-heap ground-truth oracle, in the
// style of Charatonik and Witkowski's bounded model checking of pointer
// programs: run a function concretely on small heaps and hand the
// resulting traces to the caller, who looks for a colliding access pair
// (Conflict) that a No verdict claims cannot exist.
//
// Sweep runs a function on one heap under every assignment of its
// vertices to the pointer parameters and every 0/1 assignment to the
// others.  ForEachRun does that on every heap shape up to a vertex bound
// (package heap's EnumerateGraphs) that satisfies the program's declared
// axioms.
//
// Its clients are the path-sensitivity soundness oracle (`make
// race-guards`, internal/lint) and the guard tests of internal/analysis,
// through SweepLabels, and the scenario farm (internal/scenario,
// cmd/aptfuzz), its minimizer and artifact replay, which Sweep a generated
// concrete heap and each of their family's conforming heaps.
package oracle

import (
	"fmt"

	"repro/internal/heap"
	"repro/internal/interp"
	"repro/internal/lang"
)

// MaxSteps bounds each concrete execution.  Swept heaps are tiny and the
// programs under test walk acyclic fields, so a run that exhausts it points
// at a harness bug, not at a slow program.
const MaxSteps = 50000

// Config bounds one ForEachRun sweep.
type Config struct {
	// Fn names the function to run; empty selects the program's only
	// function.
	Fn string
	// MaxVertices bounds the heap enumeration: shapes on 1..MaxVertices
	// vertices are swept (default 3).  The count is (n+1)^(n·fields), so
	// callers keep this small.
	MaxVertices int
}

// Run is one concrete execution a sweep visited.
type Run struct {
	// Graph is the heap the run executed against (a clone of the swept
	// heap, already mutated by the run).
	Graph *heap.Graph
	// Args are the concrete arguments, index-aligned with the function's
	// parameters: vertices for pointer parameters, 0/1 for the rest.
	Args []interp.Value
	// Trace is the recorded label-access trace.
	Trace *interp.Trace
}

// RunError is a run that failed (null dereference, exhausted step
// budget): the arguments it ran with and the interpreter's error.
type RunError struct {
	Args []interp.Value
	Err  error
}

func (e *RunError) Error() string { return fmt.Sprintf("args %v: %v", e.Args, e.Err) }

func (e *RunError) Unwrap() error { return e.Err }

// Conflict reports whether two access events collide: same vertex, same
// non-empty field, at least one write.
func Conflict(a, b interp.Event) bool {
	return a.Vertex == b.Vertex && a.Field == b.Field && a.Field != "" &&
		(a.IsWrite || b.IsWrite)
}

// Sweep runs fn on a clone of g under every assignment of g's vertices to
// fn's pointer parameters crossed with every 0/1 assignment to its other
// parameters, calling visit with each completed run.  The pointer choice
// is the outer loop (the first pointer parameter varies fastest) and the
// 0/1 choice the inner one, bit k of it feeding the k-th non-pointer
// parameter.  visit returning false stops the sweep.  Sweep returns the
// number of completed runs; a failing run stops the sweep with a
// *RunError.
func Sweep(prog *lang.Program, fn string, g *heap.Graph, visit func(Run) bool) (int, error) {
	f := prog.Func(fn)
	if f == nil {
		return 0, fmt.Errorf("oracle: function %q not found", fn)
	}
	var ptrIdx, numIdx []int
	for i, p := range f.Params {
		if p.Type.IsPointerToStruct() {
			ptrIdx = append(ptrIdx, i)
		} else {
			numIdx = append(numIdx, i)
		}
	}
	n := g.NumVertices()
	runs := 0
	ptrChoice := make([]int, len(ptrIdx))
	for {
		for bits := 0; bits < 1<<len(numIdx); bits++ {
			args := make([]interp.Value, len(f.Params))
			for k, i := range ptrIdx {
				args[i] = interp.Ptr(heap.Vertex(ptrChoice[k]))
			}
			for k, i := range numIdx {
				args[i] = interp.Num(float64((bits >> k) & 1))
			}
			gc := g.Clone()
			_, tr, err := interp.New(prog, gc, interp.Options{MaxSteps: MaxSteps}).Run(fn, args...)
			if err != nil {
				return runs, &RunError{Args: args, Err: err}
			}
			runs++
			if !visit(Run{Graph: gc, Args: args, Trace: tr}) {
				return runs, nil
			}
		}
		i := 0
		for ; i < len(ptrChoice); i++ {
			ptrChoice[i]++
			if ptrChoice[i] < n {
				break
			}
			ptrChoice[i] = 0
		}
		if i == len(ptrChoice) {
			return runs, nil
		}
	}
}

// ForEachRun enumerates every axiom-conforming heap of the program's first
// struct up to cfg.MaxVertices and Sweeps the function over each, calling
// visit with each completed run.  visit returning false stops the sweep.
// The total number of completed runs is returned; a failing run aborts the
// sweep with an error.
func ForEachRun(prog *lang.Program, cfg Config, visit func(Run) bool) (int, error) {
	if len(prog.Structs) == 0 {
		return 0, fmt.Errorf("oracle: program declares no struct")
	}
	st := prog.Structs[0]
	if st.Axioms == nil {
		return 0, fmt.Errorf("oracle: struct %s declares no axioms", st.Name)
	}
	fnName := cfg.Fn
	if fnName == "" {
		if len(prog.Funcs) != 1 {
			return 0, fmt.Errorf("oracle: program has %d functions; name one", len(prog.Funcs))
		}
		fnName = prog.Funcs[0].Name
	}
	if prog.Func(fnName) == nil {
		return 0, fmt.Errorf("oracle: function %q not found", fnName)
	}
	maxV := cfg.MaxVertices
	if maxV <= 0 {
		maxV = 3
	}
	checker := heap.NewChecker(st.Axioms, st.PointerFields()...)

	runs := 0
	stopped := false
	var sweepErr error
	for n := 1; n <= maxV && !stopped; n++ {
		heap.EnumerateConforming(n, st.PointerFields(), checker, func(g *heap.Graph) bool {
			k, err := Sweep(prog, fnName, g, func(r Run) bool {
				stopped = !visit(r)
				return !stopped
			})
			runs += k
			if err != nil {
				sweepErr = fmt.Errorf("oracle: %s on a conforming %d-vertex heap, %w", fnName, n, err)
			}
			return !stopped && sweepErr == nil
		})
		if sweepErr != nil {
			return runs, sweepErr
		}
	}
	return runs, nil
}

// SweepResult summarizes a two-label sweep.
type SweepResult struct {
	// Runs is the number of concrete executions swept.
	Runs int
	// BothReached reports whether any single run recorded events at both
	// labels.
	BothReached bool
	// Conflict reports whether any run produced a conflicting access pair
	// across the two labels.
	Conflict bool
}

// SweepLabels runs the function over every conforming heap up to the vertex
// bound, from every root, under every boolean input, and reports whether
// any single run reached both labels and whether any run produced a
// conflicting access pair between them.  This is the `make race-guards`
// soundness oracle: a guard-upgraded No claims the two accesses lie on
// mutually exclusive paths, so BothReached (and a fortiori Conflict) must
// be false for it.
func SweepLabels(prog *lang.Program, fnName, labelA, labelB string, maxVertices int) (SweepResult, error) {
	var res SweepResult
	runs, err := ForEachRun(prog, Config{Fn: fnName, MaxVertices: maxVertices}, func(r Run) bool {
		ea, eb := r.Trace.At(labelA), r.Trace.At(labelB)
		if len(ea) > 0 && len(eb) > 0 {
			res.BothReached = true
		}
		for _, x := range ea {
			for _, y := range eb {
				if Conflict(x, y) {
					res.Conflict = true
				}
			}
		}
		return true
	})
	res.Runs = runs
	if err != nil {
		return res, err
	}
	if runs == 0 {
		return res, fmt.Errorf("oracle: no conforming heaps enumerated up to %d vertices", maxVertices)
	}
	return res, nil
}
