// Package oracle is the bounded small-heap ground-truth oracle, promoted
// out of internal/lint's test suite into a reusable API: enumerate every
// concrete heap shape up to a vertex bound (package heap's
// Charatonik–Witkowski-style EnumerateGraphs), keep the shapes that satisfy
// the program's declared axioms, run a function concretely on each of them
// from every root under every boolean input, and hand the resulting traces
// to the caller.
//
// Its clients are tests: the path-sensitivity soundness oracle (`make
// race-guards`, internal/lint) and the guard tests of internal/analysis,
// which assert that guard-upgraded verdicts never coexist with a concrete
// run reaching both accesses.  The scenario farm (internal/scenario,
// cmd/aptfuzz) does not use it: it sweeps its families' conforming heaps
// with its own runner (internal/scenario/oracle.go).
package oracle

import (
	"fmt"

	"repro/internal/heap"
	"repro/internal/interp"
	"repro/internal/lang"
)

// Config bounds one sweep.
type Config struct {
	// Fn names the function to run; empty selects the program's only
	// function.
	Fn string
	// MaxVertices bounds the heap enumeration: shapes on 1..MaxVertices
	// vertices are swept (default 3).  The count is (n+1)^(n·fields), so
	// callers keep this small.
	MaxVertices int
	// MaxSteps bounds each concrete execution (default 10000).
	MaxSteps int
	// Checker optionally pre-compiles the conformance check.  Nil builds
	// one from the program's first struct's axioms.
	Checker *heap.Checker
}

// Run is one concrete execution the sweep visited.
type Run struct {
	// Graph is the heap the run executed against (already mutated by the
	// run; enumerate order is deterministic).
	Graph *heap.Graph
	// Args are the concrete arguments, index-aligned with the function's
	// parameters: vertices for pointer parameters, 0/1 for the rest.
	Args []interp.Value
	// Trace is the recorded label-access trace.
	Trace *interp.Trace
}

// ForEachRun enumerates every axiom-conforming heap of the program's first
// struct up to cfg.MaxVertices and runs the function on (a clone of) each
// shape under every assignment of vertices to pointer parameters and every
// boolean assignment to the remaining parameters, calling visit with each
// completed run.  visit returning false stops the sweep.  The total number
// of completed runs is returned; a run failing (null dereference, exhausted
// step budget) aborts the sweep with an error.
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
	fn := prog.Func(fnName)
	if fn == nil {
		return 0, fmt.Errorf("oracle: function %q not found", fnName)
	}
	maxV := cfg.MaxVertices
	if maxV <= 0 {
		maxV = 3
	}
	maxSteps := cfg.MaxSteps
	if maxSteps <= 0 {
		maxSteps = 10000
	}
	checker := cfg.Checker
	if checker == nil {
		checker = heap.NewChecker(st.Axioms, st.PointerFields()...)
	}

	var ptrIdx, numIdx []int
	for i, p := range fn.Params {
		if p.Type.IsPointerToStruct() {
			ptrIdx = append(ptrIdx, i)
		} else {
			numIdx = append(numIdx, i)
		}
	}

	runs := 0
	var sweepErr error
	for n := 1; n <= maxV; n++ {
		heap.EnumerateConforming(n, st.PointerFields(), checker, func(g *heap.Graph) bool {
			more := forEachArgs(n, fn, ptrIdx, numIdx, func(args []interp.Value) bool {
				gc := g.Clone()
				in := interp.New(prog, gc, interp.Options{MaxSteps: maxSteps})
				_, tr, err := in.Run(fnName, args...)
				if err != nil {
					sweepErr = fmt.Errorf("oracle: %s on a conforming %d-vertex heap with args %v: %w",
						fnName, n, args, err)
					return false
				}
				runs++
				return visit(Run{Graph: gc, Args: args, Trace: tr})
			})
			return more && sweepErr == nil
		})
		if sweepErr != nil {
			return runs, sweepErr
		}
	}
	return runs, nil
}

// forEachArgs enumerates argument vectors: every assignment of the n
// vertices to pointer parameters crossed with every 0/1 assignment to the
// remaining parameters.
func forEachArgs(n int, fn *lang.FuncDecl, ptrIdx, numIdx []int, visit func([]interp.Value) bool) bool {
	ptrChoice := make([]int, len(ptrIdx))
	for {
		boolChoice := 0
		for boolChoice < 1<<len(numIdx) {
			args := make([]interp.Value, len(fn.Params))
			for k, i := range ptrIdx {
				args[i] = interp.Ptr(heap.Vertex(ptrChoice[k]))
			}
			for k, i := range numIdx {
				args[i] = interp.Num(float64((boolChoice >> k) & 1))
			}
			if !visit(args) {
				return false
			}
			boolChoice++
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
			return true
		}
	}
}

// SweepResult summarizes a two-label sweep.
type SweepResult struct {
	// Runs is the number of concrete executions swept.
	Runs int
	// BothReached reports whether any single run recorded events at both
	// labels.
	BothReached bool
	// Conflict reports whether any run produced a conflicting access pair
	// across the two labels: same vertex, same non-empty field, at least
	// one write.
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
				if x.Vertex == y.Vertex && x.Field == y.Field && x.Field != "" && (x.IsWrite || y.IsWrite) {
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
