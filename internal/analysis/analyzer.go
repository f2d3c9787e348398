package analysis

import (
	"fmt"
	"sort"

	"repro/internal/automata"
	"repro/internal/axiom"
	"repro/internal/guard"
	"repro/internal/lang"
	"repro/internal/pathexpr"
	"repro/internal/telemetry"
)

// Analyze runs the memory-reference analysis on function fnName of prog.
func Analyze(prog *lang.Program, fnName string, opts Options) (*Result, error) {
	fn := prog.Func(fnName)
	if fn == nil {
		return nil, fmt.Errorf("analysis: function %q not found", fnName)
	}
	tel := opts.Telemetry
	sp := tel.Begin("analysis.analyze")
	ssp := tel.Begin("analysis.summarize")
	summaries := Summarize(prog)
	ssp.End(telemetry.Int("funcs", len(summaries)))
	a := &analyzer{
		prog:      prog,
		fn:        fn,
		opts:      opts,
		tel:       tel,
		varTypes:  make(map[string]string),
		counters:  make(map[string]int),
		summaries: summaries,
		res: &Result{
			Fn:   fn,
			APMs: make(map[string]*APM),
			opts: opts,
		},
		record:    true,
		ver:       guard.NewVersioner(),
		addrTaken: collectAddrTaken(fn.Body),
		dfas:      automata.NewSharedCache(0, 1, 0),
	}
	a.collectAxioms()

	st := newState()
	for _, p := range fn.Params {
		if p.Type.IsPointerToStruct() {
			a.varTypes[p.Name] = p.Type.Base
			st.set(a.freshHandle(p.Name), p.Name, pathexpr.Eps)
		}
	}
	a.walkBlock(st, fn.Body)

	tel.Counter("analysis.functions").Add(1)
	tel.Counter("analysis.accesses").Add(int64(len(a.res.Accesses)))
	tel.Counter("analysis.mods").Add(int64(len(a.res.Mods)))
	tel.Counter("analysis.loops_widened").Add(int64(a.loopID))
	sp.End(
		telemetry.String("fn", fnName),
		telemetry.Int("accesses", len(a.res.Accesses)),
		telemetry.Int("mods", len(a.res.Mods)),
		telemetry.Int("apms", len(a.res.APMs)),
		telemetry.Int("loops", a.loopID),
		telemetry.Int("axioms", a.res.Axioms.Len()))
	return a.res, nil
}

type loopCtx struct {
	id int
	// iterDeltas maps a synthetic iteration handle to the per-iteration
	// increment of the variable it anchors.
	iterDeltas map[string]pathexpr.Expr
	// modFields accumulates pointer fields structurally modified in the
	// loop body.
	modFields map[string]bool
	// assignedVars and writtenFields are the syntactic prescan of the loop
	// body: variables assigned and struct fields stored to anywhere inside
	// it (including through summarized calls).  A guard predicate reading
	// any of them may change truth value between iterations, so it is not
	// loop-invariant.  unknownCalls taints every field-reading guard.
	assignedVars  map[string]bool
	writtenFields map[string]bool
	unknownCalls  bool
}

// invariant reports whether a guard reference keeps one truth value across
// all iterations of this loop: nothing the condition reads is assigned or
// stored to in the loop body.
func (lc *loopCtx) invariant(r guard.Ref) bool {
	for _, v := range r.P.Vars() {
		if lc.assignedVars[v] {
			return false
		}
	}
	flds := r.P.Fields()
	if len(flds) > 0 && lc.unknownCalls {
		return false
	}
	for _, f := range flds {
		if lc.writtenFields[f] {
			return false
		}
	}
	return true
}

type analyzer struct {
	prog      *lang.Program
	fn        *lang.FuncDecl
	opts      Options
	tel       *telemetry.Set
	res       *Result
	varTypes  map[string]string
	counters  map[string]int
	summaries map[string]*Summary
	record    bool
	ordinal   int
	loopID    int
	loops     []*loopCtx
	// ver versions guard predicates for this walk; guards is the stack of
	// dominating branch references at the current program point; addrTaken
	// vars may be written through pointers, so they are never guarded.
	ver       *guard.Versioner
	guards    []guard.Ref
	addrTaken map[string]bool
	// dfas caches the DFAs and inclusion decisions behind the post-loop
	// widening checks of this walk (one owner, hence one shard).
	dfas *automata.SharedCache
}

// collectAddrTaken returns the variables whose address is taken anywhere in
// the block — writable behind the analysis's back, hence unguardable.
func collectAddrTaken(b *lang.Block) map[string]bool {
	taken := make(map[string]bool)
	lang.WalkStmts(b, func(st lang.Stmt) {
		walkStmtExprs(st, func(e lang.Expr) {
			if ad, ok := e.(*lang.AddrExpr); ok {
				taken[ad.Name] = true
			}
		})
	})
	return taken
}

// walkStmtExprs applies fn to every expression directly attached to st
// (conditions, operands — not statements of nested blocks, which WalkStmts
// visits separately).
func walkStmtExprs(st lang.Stmt, fn func(lang.Expr)) {
	switch v := st.(type) {
	case *lang.AssignStmt:
		lang.WalkExprs(v.LHS, fn)
		lang.WalkExprs(v.RHS, fn)
	case *lang.ExprStmt:
		lang.WalkExprs(v.X, fn)
	case *lang.IfStmt:
		lang.WalkExprs(v.Cond, fn)
	case *lang.WhileStmt:
		lang.WalkExprs(v.Cond, fn)
	case *lang.ReturnStmt:
		lang.WalkExprs(v.Value, fn)
	}
}

// branchRefs turns one edge's guardable atoms into interned references,
// snapshotting pointer-comparison facts from the current APM state.
func (a *analyzer) branchRefs(st *state, atoms []guard.Atom) []guard.Ref {
	var out []guard.Ref
	for _, at := range atoms {
		if a.guardTainted(at) {
			continue
		}
		var eq *guard.Fact
		if at.EqX != "" && a.isPointerVar(at.EqX) && a.isPointerVar(at.EqY) {
			xp, yp := st.pathsOf(at.EqX), st.pathsOf(at.EqY)
			if h, ok := commonHandle(xp, yp); ok {
				eq = &guard.Fact{X: at.EqX, Y: at.EqY, XPath: xp[h], YPath: yp[h], Handle: h}
			}
		}
		p := guard.Intern(at.Canon, a.ver.Version(at.Vars, at.Fields), at.Vars, at.Fields, eq)
		out = append(out, guard.Ref{P: p, Neg: at.Neg})
	}
	return out
}

func (a *analyzer) guardTainted(at guard.Atom) bool {
	for _, v := range at.Vars {
		if a.addrTaken[v] {
			return true
		}
	}
	return false
}

// CollectAxioms merges the axiom sets of every struct declared in the
// program, plus inferred type-disjointness axioms when inferTypes is set,
// naming the merged set after fnName.  This is exactly the axiom set a full
// Analyze of that function would report — exported separately because the
// cluster router needs only this (the set's fingerprint decides ring
// placement) and must not pay for the dataflow walk per routed request.
func CollectAxioms(prog *lang.Program, fnName string, inferTypes bool) *axiom.Set {
	merged := &axiom.Set{StructName: fnName}
	for _, s := range prog.Structs {
		if s.Axioms == nil {
			continue
		}
		for _, ax := range s.Axioms.Axioms {
			named := ax
			if len(prog.Structs) > 1 && named.Name != "" {
				named.Name = s.Name + "." + named.Name
			}
			merged.Add(named)
		}
	}
	if inferTypes {
		structs := make(map[string][]axiom.FieldDecl)
		for _, s := range prog.Structs {
			var fds []axiom.FieldDecl
			for _, f := range s.Fields {
				if f.Type.IsPointerToStruct() {
					fds = append(fds, axiom.FieldDecl{Name: f.Name, Target: f.Type.Base})
				}
			}
			structs[s.Name] = fds
		}
		inferred := axiom.InferTypeDisjointness(structs)
		for _, ax := range inferred.Axioms {
			ax.Name = "inferred-" + ax.Name
			merged.Add(ax)
		}
	}
	return merged
}

// collectAxioms records the merged axiom set on the analysis result.
func (a *analyzer) collectAxioms() {
	a.res.Axioms = CollectAxioms(a.prog, a.fn.Name, a.opts.InferTypeAxioms)
}

func (a *analyzer) freshHandle(v string) string {
	a.counters[v]++
	if a.counters[v] == 1 {
		return "_h" + v
	}
	return fmt.Sprintf("_h%s%d", v, a.counters[v])
}

func (a *analyzer) isPointerVar(v string) bool {
	_, ok := a.varTypes[v]
	return ok
}

// pointerField reports whether field f of *v is a pointer field, using v's
// declared struct type.
func (a *analyzer) pointerField(v, f string) bool {
	t, ok := a.varTypes[v]
	if !ok {
		return false
	}
	s := a.prog.Struct(t)
	if s == nil {
		return false
	}
	fd := s.Field(f)
	return fd != nil && fd.Type.IsPointerToStruct()
}

// fieldTargetType returns the struct type field f of *v points to ("" when
// not a pointer field).
func (a *analyzer) fieldTargetType(v, f string) string {
	t, ok := a.varTypes[v]
	if !ok {
		return ""
	}
	s := a.prog.Struct(t)
	if s == nil {
		return ""
	}
	fd := s.Field(f)
	if fd == nil || !fd.Type.IsPointerToStruct() {
		return ""
	}
	return fd.Type.Base
}

func (a *analyzer) walkBlock(st *state, b *lang.Block) *state {
	for _, s := range b.Stmts {
		st = a.walkStmt(st, s)
	}
	return st
}

func (a *analyzer) walkStmt(st *state, s lang.Stmt) *state {
	if lbl := s.Label(); lbl != "" && a.record {
		// The paper: the APM at a point holds paths traversed up to, but not
		// including, that point.
		a.res.APMs[lbl] = st.snapshot()
	}
	a.ordinal++

	switch v := s.(type) {
	case *lang.DeclStmt:
		for _, item := range v.Items {
			if item.Type.IsPointerToStruct() {
				a.varTypes[item.Name] = item.Type.Base
			}
		}
		return st

	case *lang.AssignStmt:
		return a.walkAssign(st, v)

	case *lang.ExprStmt:
		a.recordReads(st, v.X, v.Label(), v.StmtPos())
		a.applyCallsIn(st, v.X, v.Label(), v.StmtPos())
		return st

	case *lang.ReturnStmt:
		if v.Value != nil {
			a.recordReads(st, v.Value, v.Label(), v.StmtPos())
			a.applyCallsIn(st, v.Value, v.Label(), v.StmtPos())
		}
		return st

	case *lang.BlockStmt:
		return a.walkBlock(st, v.Body)

	case *lang.IfStmt:
		a.recordReads(st, v.Cond, v.Label(), v.StmtPos())
		thenAtoms, elseAtoms := guard.BranchAtoms(v.Cond)
		depth := len(a.guards)
		a.guards = append(a.guards, a.branchRefs(st, thenAtoms)...)
		thenSt := a.walkBlock(st.clone(), v.Then)
		a.guards = a.guards[:depth]
		if v.Else != nil {
			a.guards = append(a.guards, a.branchRefs(st, elseAtoms)...)
			elseSt := a.walkBlock(st.clone(), v.Else)
			a.guards = a.guards[:depth]
			return join(thenSt, elseSt)
		}
		return join(thenSt, st)

	case *lang.WhileStmt:
		return a.walkWhile(st, v)
	}
	return st
}

func (a *analyzer) walkAssign(st *state, s *lang.AssignStmt) *state {
	a.recordReads(st, s.RHS, s.Label(), s.StmtPos())
	a.applyCallsIn(st, s.RHS, s.Label(), s.StmtPos())

	switch lhs := s.LHS.(type) {
	case *lang.FieldAccess:
		// Store to lhs.Base->lhs.Field.  Record the write with the APM
		// before the statement (the store does not move any pointer VAR).
		a.recordAccess(st, s.Label(), lhs.Base, lhs.Field, true, s.StmtPos())
		a.ver.BumpField(lhs.Field)
		if a.pointerField(lhs.Base, lhs.Field) {
			a.structuralMod(st, lhs.Field, s.Label(), s.StmtPos())
		}
		return st

	case *lang.Ident:
		x := lhs.Name
		a.ver.BumpVar(x)
		switch rhs := s.RHS.(type) {
		case *lang.Ident:
			if !a.isPointerVar(x) {
				return st
			}
			if rhs.Name == x {
				return st
			}
			src := st.pathsOf(rhs.Name)
			st.dropVar(x)
			for h, p := range src {
				st.set(h, x, p)
			}
			st.set(a.freshHandle(x), x, pathexpr.Eps)
			return st

		case *lang.FieldAccess:
			if !a.isPointerVar(x) || !a.pointerField(rhs.Base, rhs.Field) {
				return st
			}
			f := pathexpr.F(rhs.Field)
			if rhs.Base == x {
				// Self-relative assignment: extend existing paths, create no
				// new handle (the induction-variable rule, §3.3).
				cur := st.pathsOf(x)
				if len(cur) == 0 {
					st.set(a.freshHandle(x), x, pathexpr.Eps)
					return st
				}
				for h, p := range cur {
					st.set(h, x, pathexpr.Cat(p, f))
				}
				return st
			}
			src := st.pathsOf(rhs.Base)
			st.dropVar(x)
			for h, p := range src {
				st.set(h, x, pathexpr.Cat(p, f))
			}
			st.set(a.freshHandle(x), x, pathexpr.Eps)
			return st

		case *lang.MallocExpr:
			if !a.isPointerVar(x) {
				return st
			}
			st.dropVar(x)
			st.set(a.freshHandle(x), x, pathexpr.Eps)
			return st

		case *lang.NullLit:
			st.dropVar(x)
			return st

		case *lang.NumLit:
			if a.isPointerVar(x) {
				st.dropVar(x)
			}
			return st

		case *lang.CallExpr:
			// Call effects were applied by applyCallsIn above; here only
			// the returned value binds.  For a summarized accessor the
			// return value is a known path from one of the arguments.
			if a.isPointerVar(x) {
				var derived map[string]pathexpr.Expr
				if sum := a.summaries[rhs.Name]; sum != nil && sum.RetKnown && sum.RetParam < len(rhs.Args) {
					if arg, ok := rhs.Args[sum.RetParam].(*lang.Ident); ok && a.isPointerVar(arg.Name) {
						derived = make(map[string]pathexpr.Expr)
						for h, p := range st.pathsOf(arg.Name) {
							derived[h] = pathexpr.Cat(p, sum.RetPath)
						}
					}
				}
				st.dropVar(x)
				for h, p := range derived {
					st.set(h, x, p)
				}
				st.set(a.freshHandle(x), x, pathexpr.Eps)
			}
			return st

		default:
			if a.isPointerVar(x) {
				st.dropVar(x)
			}
			return st
		}
	}
	return st
}

// walkWhile analyzes a loop: one silent pass to discover per-iteration
// increments, widening with Kleene stars, then a recording pass at the
// fixpoint with synthetic iteration handles planted for loop-carried
// queries.
func (a *analyzer) walkWhile(st *state, w *lang.WhileStmt) *state {
	a.recordReads(st, w.Cond, w.Label(), w.StmtPos())
	entry := st

	// Silent pass to observe one iteration's effect.
	saved := a.record
	a.record = false
	after1 := a.walkBlock(entry.clone(), w.Body)
	a.record = saved

	wid, deltas := widen(entry, after1)

	// Per-variable iteration increment: consistent across handles or none.
	varDelta := make(map[string]pathexpr.Expr)
	varOK := make(map[string]bool)
	for hv, d := range deltas {
		v := hv.v
		if prev, seen := varDelta[v]; seen {
			if !pathexpr.Equal(prev, d) {
				varOK[v] = false
			}
		} else {
			varDelta[v] = d
			varOK[v] = true
		}
	}

	a.loopID++
	lc := &loopCtx{
		id:         a.loopID,
		iterDeltas: make(map[string]pathexpr.Expr),
		modFields:  make(map[string]bool),
	}
	a.prescanLoopBody(lc, w.Body)
	fix := wid.clone()
	for v, d := range varDelta {
		if !varOK[v] {
			continue
		}
		ih := fmt.Sprintf("_it%d_%s", lc.id, v)
		lc.iterDeltas[ih] = d
		fix.set(ih, v, pathexpr.Eps)
	}
	if a.tel.TraceEnabled() {
		a.tel.Emit("analysis.widen",
			telemetry.Int("loop", lc.id),
			telemetry.String("label", w.Label()),
			telemetry.Int("widened_vars", len(deltas)),
			telemetry.Int("iter_handles", len(lc.iterDeltas)))
	}

	// Recording pass at the widened fixpoint.
	firstAccess := len(a.res.Accesses)
	a.loops = append(a.loops, lc)
	after2 := a.walkBlock(fix.clone(), w.Body)
	a.loops = a.loops[:len(a.loops)-1]

	// Accesses recorded early in the body must still see modifications that
	// occur later in the same body: any iteration's store precedes a later
	// iteration's access.  Back-patch the loop's final modification set.
	if len(lc.modFields) > 0 {
		var mods []string
		for f := range lc.modFields {
			mods = append(mods, f)
		}
		for i := firstAccess; i < len(a.res.Accesses); i++ {
			set := map[string]bool{}
			for _, f := range a.res.Accesses[i].LoopModFields {
				set[f] = true
			}
			for _, f := range mods {
				set[f] = true
			}
			merged := make([]string, 0, len(set))
			for f := range set {
				merged = append(merged, f)
			}
			sort.Strings(merged)
			a.res.Accesses[i].LoopModFields = merged
		}
	}

	// Post-loop state: the widened entry where the body's effect stayed
	// within the widened language; everything else is unknown after the
	// loop.  Iteration handles are per-iteration and do not survive.
	post := newState()
	post.modEpoch = maxInt(entry.modEpoch, after2.modEpoch)
	for h, row := range wid.cells {
		for v, p := range row {
			p2, ok := after2.cells[h][v]
			if !ok {
				continue
			}
			if pathexpr.Equal(p, p2) || a.includes(p2, p) {
				post.set(h, v, p)
			}
		}
	}
	return post
}

// prescanLoopBody fills the loop's guard-invariance sets: variables
// assigned and fields written anywhere in the body, including through
// summarized calls.  Conservative in the right direction — an
// over-approximation only shrinks InvGuards, never grows it.
func (a *analyzer) prescanLoopBody(lc *loopCtx, body *lang.Block) {
	lc.assignedVars = make(map[string]bool)
	lc.writtenFields = make(map[string]bool)
	noteCall := func(name string) {
		sum := a.summaries[name]
		if sum == nil || sum.CallsUnknown {
			lc.unknownCalls = true
		}
		if sum != nil {
			for _, f := range sum.WrittenFields {
				lc.writtenFields[f] = true
			}
		}
	}
	lang.WalkStmts(body, func(st lang.Stmt) {
		if as, ok := st.(*lang.AssignStmt); ok {
			switch lhs := as.LHS.(type) {
			case *lang.Ident:
				lc.assignedVars[lhs.Name] = true
			case *lang.FieldAccess:
				lc.writtenFields[lhs.Field] = true
			}
		}
		walkStmtExprs(st, func(e lang.Expr) {
			if call, ok := e.(*lang.CallExpr); ok {
				noteCall(call.Name)
			}
		})
	})
}

// includes decides language inclusion L(sub) ⊆ L(sup) through the
// analyzer's DFA cache; any failure (e.g. state blowup) is treated as "not
// included", which only loses precision.
func (a *analyzer) includes(sub, sup pathexpr.Expr) bool {
	ok, err := a.dfas.Includes(pathexpr.Intern(sub), pathexpr.Intern(sup), automata.AlphabetOf(sub, sup))
	return err == nil && ok
}

type hvKey struct{ h, v string }

// widen compares the loop-entry state with the state after one iteration
// and generalizes growing paths: p → p·δ becomes p·δ*.  It returns the
// widened state and the observed increments.
func widen(entry, after *state) (*state, map[hvKey]pathexpr.Expr) {
	wid := newState()
	wid.modEpoch = maxInt(entry.modEpoch, after.modEpoch)
	deltas := make(map[hvKey]pathexpr.Expr)
	for h, row := range entry.cells {
		arow, ok := after.cells[h]
		if !ok {
			continue
		}
		for v, pe := range row {
			p1, ok := arow[v]
			if !ok {
				continue
			}
			if pathexpr.Equal(pe, p1) {
				wid.set(h, v, pe)
				continue
			}
			if d, ok := componentSuffix(pe, p1); ok {
				wid.set(h, v, pathexpr.Cat(pe, pathexpr.Rep(d)))
				deltas[hvKey{h, v}] = d
				continue
			}
			// Entry already closed (e.g. re-widening): keep if stable.
			// Anything else is dropped as unknown.
		}
	}
	return wid, deltas
}

// componentSuffix reports whether p1 = pe · δ at component granularity and
// returns δ.
func componentSuffix(pe, p1 pathexpr.Expr) (pathexpr.Expr, bool) {
	ce, c1 := pathexpr.Components(pe), pathexpr.Components(p1)
	if len(c1) <= len(ce) {
		return nil, false
	}
	for i := range ce {
		if !pathexpr.Equal(ce[i], c1[i]) {
			return nil, false
		}
	}
	return pathexpr.FromComponents(c1[len(ce):]), true
}

// structuralMod handles a store to a pointer field (§3.4): it is recorded as
// a modification site, poisons the enclosing loops, and invalidates every
// access path that traverses the modified field.
func (a *analyzer) structuralMod(st *state, field, label string, pos lang.Pos) {
	if a.record {
		a.res.Mods = append(a.res.Mods, ModSite{Epoch: st.modEpoch, Field: field, Label: label, Pos: pos})
	}
	st.modEpoch++
	for _, lc := range a.loops {
		lc.modFields[field] = true
	}
	for h, row := range st.cells {
		for v, p := range row {
			if mentionsField(p, field) {
				delete(row, v)
			}
		}
		if len(row) == 0 {
			delete(st.cells, h)
		}
	}
}

// invalidateAll models an opaque call that may restructure everything:
// every non-ε path is dropped and all fields count as modified.
func (a *analyzer) invalidateAll(st *state, label string, pos lang.Pos) {
	if a.record {
		a.res.Mods = append(a.res.Mods, ModSite{Epoch: st.modEpoch, Field: "*", Label: label, Pos: pos})
	}
	st.modEpoch++
	for _, lc := range a.loops {
		lc.modFields["*"] = true
	}
	for h, row := range st.cells {
		for v, p := range row {
			if _, isEps := p.(pathexpr.Epsilon); !isEps {
				delete(row, v)
			}
		}
		if len(row) == 0 {
			delete(st.cells, h)
		}
	}
}

func mentionsField(p pathexpr.Expr, field string) bool {
	found := false
	pathexpr.Walk(p, func(e pathexpr.Expr) {
		if f, ok := e.(pathexpr.Field); ok && f.Name == field {
			found = true
		}
	})
	return found
}

// applyCallsIn applies the structural effects of every call in e, using
// interprocedural summaries for functions the program defines: their
// (transitively) modified pointer fields become modification sites here.
// Calls to unknown functions follow the CallsModifyStructure option.
func (a *analyzer) applyCallsIn(st *state, e lang.Expr, label string, pos lang.Pos) {
	lang.WalkExprs(e, func(x lang.Expr) {
		call, ok := x.(*lang.CallExpr)
		if !ok {
			return
		}
		sum := a.summaries[call.Name]
		if sum == nil {
			// Unknown callee: the lenient default assumes it maintains the
			// axioms (Figure 1's insert); strict mode wipes the world.
			// Guard versions are invalidated either way — an unknown callee
			// may overwrite any field's VALUE even while preserving the
			// structural axioms.
			a.ver.BumpAllFields()
			if a.opts.CallsModifyStructure {
				a.invalidateAll(st, label, pos)
			}
			return
		}
		for _, f := range sum.WrittenFields {
			a.ver.BumpField(f)
		}
		for _, f := range sum.ModifiedFields {
			a.structuralMod(st, f, label, pos)
		}
		if sum.CallsUnknown {
			a.ver.BumpAllFields()
			if a.opts.CallsModifyStructure {
				a.invalidateAll(st, label, pos)
			}
		}
	})
}

// recordReads records a read access for every var->field occurrence in e.
func (a *analyzer) recordReads(st *state, e lang.Expr, label string, _ lang.Pos) {
	lang.WalkExprs(e, func(x lang.Expr) {
		if fa, ok := x.(*lang.FieldAccess); ok {
			a.recordAccess(st, label, fa.Base, fa.Field, false, fa.ExprPos())
		}
	})
}

func (a *analyzer) recordAccess(st *state, label, v, field string, isWrite bool, pos lang.Pos) {
	if !a.record {
		return
	}
	acc := Access{
		Label:    label,
		Stmt:     a.ordinal,
		Var:      v,
		Field:    field,
		Type:     a.varTypes[v],
		IsWrite:  isWrite,
		Paths:    st.pathsOf(v),
		ModEpoch: st.modEpoch,
		Pos:      pos,
	}
	acc.Guards = guard.Canon(a.guards)
	acc.InvGuards = acc.Guards
	if len(a.loops) > 0 {
		acc.IterDeltas = make(map[string]pathexpr.Expr)
		modSet := map[string]bool{}
		for _, lc := range a.loops {
			for ih, d := range lc.iterDeltas {
				if _, ok := acc.Paths[ih]; ok {
					acc.IterDeltas[ih] = d
				}
			}
			for f := range lc.modFields {
				modSet[f] = true
			}
			acc.InvGuards = acc.InvGuards.Filter(lc.invariant)
		}
		for f := range modSet {
			acc.LoopModFields = append(acc.LoopModFields, f)
		}
		sort.Strings(acc.LoopModFields)
	}
	a.res.Accesses = append(a.res.Accesses, acc)
}
