package analysis

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"

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
	sp := tel.Trace().StartSpan("analysis.analyze", tel.Parent())
	ssp := tel.Trace().StartSpan("analysis.summarize", sp.ID())
	summaries := summarize(prog, []*lang.FuncDecl{fn})
	ssp.End(telemetry.Int("funcs", len(summaries)))
	dfas := opts.DFACache
	if dfas == nil {
		dfas = automata.NewSharedCache(1, 0).SetTelemetry(tel)
	}
	a := &analyzer{
		prog:      prog,
		fn:        fn,
		opts:      opts,
		trace:     tel.Trace(),
		span:      sp.ID(),
		varTypes:  make(map[string]string),
		counters:  make(map[string]int),
		summaries: summaries,
		res: &Result{
			Fn:   fn,
			apms: make(map[string]*APM),
			opts: opts,
		},
		record:    true,
		ver:       guard.NewVersioner(),
		addrTaken: lang.AddrTaken(fn.Body),
		dfas:      dfas.Account(tel.Under(sp.ID())),
		handleID:  make(map[string]int),
	}
	a.collectAxioms()
	a.numberVars()
	a.numberFields()

	st := newState(len(a.colName))
	st.facts = make([]handleFact, st.nv)
	for _, p := range fn.Params {
		if c := a.column(p.Name); c >= 0 && p.Type.Ptr > 0 {
			st.facts[c] = handleFact{null: nullValid}
		}
		if p.Type.IsPointerToStruct() {
			a.varTypes[p.Name] = p.Type.Base
			st.set(a.freshHandle(p.Name), a.colID[p.Name], epsNode)
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
		telemetry.Int("apms", len(a.res.apms)),
		telemetry.Int("loops", a.loopID),
		telemetry.Int("axioms", a.res.Axioms.Len()),
		telemetry.Int("widen_checks", a.widenChecks),
		telemetry.Int("dfa_compiles", a.dfas.Compiles))
	return a.res, nil
}

type loopCtx struct {
	id   int
	loop *Loop
	// iterDeltas lists the loop's synthetic iteration handles with the
	// per-iteration increment of the variable each anchors.
	iterDeltas []iterDelta
	// modFields accumulates pointer fields structurally modified in the
	// loop body.
	modFields map[string]bool
}

// iterDelta is one synthetic iteration handle and its increment.
type iterDelta struct {
	h int
	d pathexpr.Expr
}

// invariant reports whether a guard reference keeps one truth value across
// all iterations of this loop: nothing the condition reads is assigned or
// stored to in the loop body.
func (lc *loopCtx) invariant(r guard.Ref) bool {
	lp := lc.loop
	for _, v := range r.P.Vars() {
		if lp.Written[v] {
			return false
		}
	}
	flds := r.P.Fields()
	if len(flds) > 0 && lp.unknownCalls {
		return false
	}
	for _, f := range flds {
		if lp.writtenFields[f] {
			return false
		}
	}
	return true
}

type analyzer struct {
	prog      *lang.Program
	fn        *lang.FuncDecl
	opts      Options
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
	// vars may be written through pointers, so they are never guarded, and
	// escaped lists the address-taken struct pointers, sorted.
	ver       *guard.Versioner
	guards    []guard.Ref
	addrTaken map[string]bool
	escaped   []string
	// dfas is this walk's account on the DFA cache behind the post-loop
	// widening checks (Options.DFACache, or a private one-shard cache);
	// widenChecks counts the inclusion checks it decided.
	dfas        automata.Account
	widenChecks int
	// The matrix numbering: handle and pointer-variable names by ID, and
	// the reverse maps.  Variables are numbered up front (numberVars),
	// handles as the walk creates them; byName lists the handle IDs in
	// name order.
	handleName []string
	handleID   map[string]int
	byName     []int
	colName    []string
	colID      map[string]int
	// ptrFields numbers the program's pointer fields for handle safety's
	// via sets; origins and updates hold what handleFact.origin and .stale
	// number (SiteGuards set, Guards not).
	ptrFields []string
	origins   []origin
	updates   []StaleUse
	// trace receives the analysis.widen events, parented under span (the
	// function's analysis.analyze span).
	trace *telemetry.RequestTrace
	span  telemetry.SpanID
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
			xp, yp := a.paths(st, at.EqX), a.paths(st, at.EqY)
			if h, ok := commonHandle(xp, yp); ok {
				xh, _ := xp.Get(h)
				yh, _ := yp.Get(h)
				eq = &guard.Fact{X: at.EqX, Y: at.EqY, XPath: xh, YPath: yh, Handle: h}
			}
		}
		p := a.ver.Intern(at.Canon, at.Vars, at.Fields, eq)
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
	n := 0
	for _, s := range prog.Structs {
		if s.Axioms != nil {
			n += len(s.Axioms.Axioms)
		}
	}
	merged := &axiom.Set{StructName: fnName, Axioms: make([]axiom.Axiom, 0, n)}
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

// numberVars gives every pointer variable of the function its column: the
// struct pointers, which varTypes can come to hold, and the other pointers,
// which only handle safety tracks.  It also lists the escaped struct
// pointers and sizes the walk's records.
func (a *analyzer) numberVars() {
	a.colID = make(map[string]int)
	add := func(name string, t lang.Type) {
		if t.Ptr == 0 {
			return
		}
		if _, ok := a.colID[name]; !ok {
			a.colID[name] = len(a.colName)
			a.colName = append(a.colName, name)
		}
		if t.IsPointerToStruct() && a.addrTaken[name] && !slices.Contains(a.escaped, name) {
			a.escaped = append(a.escaped, name)
		}
	}
	for _, p := range a.fn.Params {
		add(p.Name, p.Type)
	}
	// Size the walk's records: it records every var->field occurrence
	// once, at most one nullness hazard per dereference site, and at most
	// one origin per declaration, NULL or field load.
	accesses, derefs, nulls := 0, 0, 0
	lang.WalkStmts(a.fn.Body, func(st lang.Stmt) {
		if d, ok := st.(*lang.DeclStmt); ok {
			for _, item := range d.Items {
				add(item.Name, item.Type)
			}
		}
		lang.StmtExprs(st, func(e lang.Expr) {
			switch e.(type) {
			case *lang.FieldAccess:
				accesses++
			case *lang.DerefExpr:
				derefs++
			case *lang.NullLit:
				nulls++
			}
		})
	})
	a.res.Accesses = make([]Access, 0, accesses)
	a.res.Hazards = make([]Hazard, 0, accesses+derefs)
	a.origins = make([]origin, 0, len(a.colName)+nulls+accesses)
	slices.Sort(a.escaped)
}

// handle returns the row of the named handle, numbering it on first use.
// Rows are keyed by name because two creations can build one name (p's
// twelfth handle and p1's second are both _hp12), and one name is one
// handle.
func (a *analyzer) handle(name string) int {
	if h, ok := a.handleID[name]; ok {
		return h
	}
	h := len(a.handleName)
	a.handleID[name] = h
	a.handleName = append(a.handleName, name)
	i, _ := slices.BinarySearchFunc(a.byName, name, func(id int, name string) int {
		return strings.Compare(a.handleName[id], name)
	})
	a.byName = slices.Insert(a.byName, i, h)
	return h
}

func (a *analyzer) freshHandle(v string) int {
	a.counters[v]++
	if a.counters[v] == 1 {
		return a.handle("_h" + v)
	}
	return a.handle("_h" + v + strconv.Itoa(a.counters[v]))
}

// paths materializes v's column as the exported handle-sorted paths.
func (a *analyzer) paths(st *state, v string) HandlePaths {
	c, ok := a.colID[v]
	if !ok {
		return nil
	}
	return a.colPaths(st, c)
}

// colPaths is paths by column.
func (a *analyzer) colPaths(st *state, c int) HandlePaths {
	n := 0
	for h := 0; h < st.rows(); h++ {
		if st.get(h, c) != nil {
			n++
		}
	}
	if n == 0 {
		return nil
	}
	out := make(HandlePaths, 0, n)
	for _, h := range a.byName {
		if p := st.get(h, c); p != nil {
			out = append(out, HandlePath{a.handleName[h], p.Expr()})
		}
	}
	return out
}

// snapshot copies the state's cells into an APM that names its rows and
// columns.  Handle names are never rewritten, so the APM shares them.
func (a *analyzer) snapshot(st *state) *APM {
	n := len(a.handleName)
	return &APM{
		st:      state{cells: slices.Clone(st.cells), nv: st.nv},
		handles: a.handleName[:n:n],
		vars:    a.colName,
	}
}

// derive rebinds column x to column src, each path extended by suffix (nil
// keeps it as is); rows where src is absent drop x.  src may be x itself:
// every cell is read before it is written.
func (a *analyzer) derive(st *state, x int, src string, suffix pathexpr.Expr) {
	s, ok := a.colID[src]
	if !ok {
		st.dropVar(x)
		return
	}
	for h := 0; h < st.rows(); h++ {
		p := st.get(h, s)
		if p != nil && suffix != nil {
			p = norm(pathexpr.Cat(p.Expr(), suffix))
		}
		st.cells[h*st.nv+x] = p
	}
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
		a.res.apms[lbl] = a.snapshot(st)
	}
	a.ordinal++

	switch v := s.(type) {
	case *lang.DeclStmt:
		for _, item := range v.Items {
			if c := a.column(item.Name); c >= 0 && item.Type.Ptr > 0 && !st.dead {
				st.facts[c] = handleFact{null: nullUninit, origin: a.newOrigin(v.StmtPos(), item.Name)}
			}
			if item.Type.IsPointerToStruct() {
				a.varTypes[item.Name] = item.Type.Base
			}
		}
		return st

	case *lang.AssignStmt:
		return a.walkAssign(st, v)

	case *lang.ExprStmt:
		a.recordReads(st, v.X, v.Label())
		a.applyCallsIn(st, v.X, v.Label(), v.StmtPos())
		return st

	case *lang.ReturnStmt:
		if v.Value != nil {
			a.recordReads(st, v.Value, v.Label())
			a.applyCallsIn(st, v.Value, v.Label(), v.StmtPos())
		}
		st.dead = true
		return st

	case *lang.BlockStmt:
		return a.walkBlock(st, v.Body)

	case *lang.IfStmt:
		a.recordReads(st, v.Cond, v.Label())
		thenAtoms, elseAtoms := guard.BranchAtoms(v.Cond)
		// Both edges' guards describe the condition as it was evaluated:
		// before its calls run, and before either branch bumps a version
		// of what it reads.
		thenRefs := a.branchRefs(st, thenAtoms)
		var elseRefs []guard.Ref
		if v.Else != nil {
			elseRefs = a.branchRefs(st, elseAtoms)
		}
		depth := len(a.guards)
		a.guards = append(a.guards, thenRefs...)
		a.applyCallsIn(st, v.Cond, v.Label(), v.StmtPos())
		thenSt := st.clone()
		a.refine(thenSt, v.Cond, true)
		thenSt = a.walkBlock(thenSt, v.Then)
		a.guards = a.guards[:depth]
		if v.Else != nil {
			a.guards = append(a.guards, elseRefs...)
			elseSt := st.clone()
			a.refine(elseSt, v.Cond, false)
			elseSt = a.walkBlock(elseSt, v.Else)
			a.guards = a.guards[:depth]
			return join(thenSt, elseSt)
		}
		a.refine(st, v.Cond, false)
		return join(thenSt, st)

	case *lang.WhileStmt:
		return a.walkWhile(st, v)
	}
	return st
}

func (a *analyzer) walkAssign(st *state, s *lang.AssignStmt) *state {
	a.recordReads(st, s.RHS, s.Label())
	a.applyCallsIn(st, s.RHS, s.Label(), s.StmtPos())

	switch lhs := s.LHS.(type) {
	case *lang.FieldAccess:
		// Store to lhs.Base->lhs.Field.  Record the write with the APM
		// before the statement (the store does not move any pointer VAR).
		a.access(st, s.Label(), lhs, true)
		a.ver.BumpField(lhs.Field)
		if a.pointerField(lhs.Base, lhs.Field) {
			a.structuralMod(st, lhs.Field, s.Label(), s.StmtPos(), a.colID[lhs.Base])
		}
		return st

	case *lang.DerefExpr:
		a.checkDeref(st, lhs.Name, a.column(lhs.Name), lhs.Pos)
		a.reassignEscaped(st)
		return st

	case *lang.Ident:
		name := lhs.Name
		a.ver.BumpVar(name)
		x := a.column(name)
		if x >= 0 {
			a.assignFact(st, x, s.RHS)
		}
		isPtr := a.isPointerVar(name)
		switch rhs := s.RHS.(type) {
		case *lang.Ident:
			if !isPtr || rhs.Name == name {
				return st
			}
			a.derive(st, x, rhs.Name, nil)
			st.set(a.freshHandle(name), x, epsNode)
			return st

		case *lang.FieldAccess:
			if !isPtr || !a.pointerField(rhs.Base, rhs.Field) {
				return st
			}
			f := pathexpr.F(rhs.Field)
			if rhs.Base == name {
				// Self-relative assignment: extend existing paths, create no
				// new handle (the induction-variable rule, §3.3).
				if !st.hasVar(x) {
					st.set(a.freshHandle(name), x, epsNode)
					return st
				}
				a.derive(st, x, name, f)
				return st
			}
			a.derive(st, x, rhs.Base, f)
			st.set(a.freshHandle(name), x, epsNode)
			return st

		case *lang.MallocExpr:
			if !isPtr {
				return st
			}
			st.dropVar(x)
			st.set(a.freshHandle(name), x, epsNode)
			return st

		case *lang.CallExpr:
			// Call effects were applied by applyCallsIn above; here only
			// the returned value binds.  For a summarized accessor the
			// return value is a known path from one of the arguments.
			if !isPtr {
				return st
			}
			derived := false
			if sum := a.summaries[rhs.Name]; sum != nil && sum.RetKnown && sum.RetParam < len(rhs.Args) {
				if arg, ok := rhs.Args[sum.RetParam].(*lang.Ident); ok && a.isPointerVar(arg.Name) {
					a.derive(st, x, arg.Name, sum.RetPath)
					derived = true
				}
			}
			if !derived {
				st.dropVar(x)
			}
			st.set(a.freshHandle(name), x, epsNode)
			return st

		default:
			// Null, a number, or any other value: the variable no longer
			// points anywhere the matrix knows.  (Only pointer variables
			// ever hold cells, so there is nothing to drop otherwise.)
			if isPtr {
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
	a.recordReads(st, w.Cond, w.Label())
	// The condition runs, calls and all, before the first iteration and
	// again after each one.
	a.applyCallsIn(st, w.Cond, w.Label(), w.StmtPos())
	entry := st
	lp := a.loopFor(w)
	// Handle safety's column at the head: the entry's, with everything
	// the body may assign forgotten.
	a.widenFacts(entry, lp)

	// Silent pass to observe one iteration's effect, on the column too:
	// a handle the body stales after its last use is stale at its first
	// use in the next iteration, so the pass repeats until the head's
	// column stales no further handle.
	saved := a.record
	a.record = false
	var after1 *state
	for again := true; again; again = entry.carryStale(after1) {
		after1 = a.walkBlock(entry.clone(), w.Body)
		a.applyCallsIn(after1, w.Cond, w.Label(), w.StmtPos())
	}
	a.record = saved

	wid, deltas := widen(entry, after1)
	wid.facts, wid.dead = entry.facts, entry.dead

	// Per-variable iteration increment: consistent across handles or none.
	varDelta := make([]*pathexpr.Node, entry.nv)
	varOK := make([]bool, entry.nv)
	for _, d := range deltas {
		if prev := varDelta[d.v]; prev != nil {
			if prev != d.node {
				varOK[d.v] = false
			}
		} else {
			varDelta[d.v] = d.node
			varOK[d.v] = true
		}
	}

	a.loopID++
	lc := &loopCtx{
		id:        a.loopID,
		loop:      lp,
		modFields: make(map[string]bool),
	}
	fix := wid.clone()
	a.refine(fix, w.Cond, true)
	for v, d := range varDelta {
		if !varOK[v] {
			continue
		}
		ih := a.handle("_it" + strconv.Itoa(lc.id) + "_" + a.colName[v])
		lc.iterDeltas = append(lc.iterDeltas, iterDelta{h: ih, d: d.Expr()})
		fix.set(ih, v, epsNode)
	}
	if a.trace.Streaming() {
		a.trace.Event("analysis.widen", a.span,
			telemetry.Int("loop", lc.id),
			telemetry.String("label", w.Label()),
			telemetry.Int("widened_vars", len(deltas)),
			telemetry.Int("iter_handles", len(lc.iterDeltas)))
	}

	// Recording pass at the widened fixpoint.
	firstAccess := len(a.res.Accesses)
	a.loops = append(a.loops, lc)
	after2 := a.walkBlock(fix, w.Body)
	a.applyCallsIn(after2, w.Cond, w.Label(), w.StmtPos())
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
	post := newState(wid.nv)
	post.modEpoch = maxInt(entry.modEpoch, after2.modEpoch)
	post.cells = make([]*pathexpr.Node, len(wid.cells))
	for i, p := range wid.cells {
		if p == nil || i >= len(after2.cells) {
			continue
		}
		if p2 := after2.cells[i]; p2 != nil && (p == p2 || a.includes(p2, p)) {
			post.cells[i] = p
		}
	}
	// The column leaves the loop when its condition fails, which a
	// while (1) condition never does.
	post.joinFacts(wid, after2)
	a.refine(post, w.Cond, false)
	if lang.ConstTrue(w.Cond) {
		post.dead = true
	}
	return post
}

// loopFor returns w's loop record, making it on first sight: the loop is
// walked again for every pass over an enclosing loop.  Written, the fields
// and the unknown-call flag decide which guards are loop-invariant; they
// over-approximate, which only shrinks InvGuards.
func (a *analyzer) loopFor(w *lang.WhileStmt) *Loop {
	for _, lp := range a.res.Loops {
		if lp.Stmt == w {
			return lp
		}
	}
	wr := lang.LoopWrites(w)
	lp := &Loop{Stmt: w, Written: wr.Vars, writtenFields: wr.Fields}
	for _, name := range wr.Calls {
		sum := a.summaries[name]
		if sum == nil || sum.CallsUnknown {
			lp.unknownCalls = true
		}
		if sum != nil {
			for _, f := range sum.WrittenFields {
				lp.writtenFields[f] = true
			}
		}
	}
	if len(wr.Calls) > 0 || wr.Deref {
		for _, v := range a.escaped {
			lp.Written[v] = true
		}
	}
	a.res.Loops = append(a.res.Loops, lp)
	return lp
}

// includes decides language inclusion L(sub) ⊆ L(sup).  The post-loop
// check's usual shape, X·δ*·δ ⊆ X·δ*, holds because δ*·δ ⊆ δ*, and is
// answered from the interned expressions; any other goes to the analyzer's
// DFA cache, where a failure (e.g. state blowup) is treated as "not
// included", which only loses precision.
func (a *analyzer) includes(sub, sup *pathexpr.Node) bool {
	a.widenChecks++
	if testIncludesHook != nil {
		testIncludesHook(sub, sup)
	}
	if closesStar(sub, sup) {
		return true
	}
	ok, err := a.dfas.Includes(sub, sup, automata.AlphabetOf(sub.Expr(), sup.Expr()))
	return err == nil && ok
}

// testIncludesHook, when non-nil, sees every post-loop inclusion check.
var testIncludesHook func(sub, sup *pathexpr.Node)

// closesStar reports whether sup ends in a star δ* and sub is the
// interned sup·δ.
func closesStar(sub, sup *pathexpr.Node) bool {
	last := sup.Expr()
	if c, ok := last.(pathexpr.Concat); ok {
		last = c.Parts[len(c.Parts)-1]
	}
	st, ok := last.(pathexpr.Star)
	return ok && pathexpr.Intern(pathexpr.Cat(sup.Expr(), st.Inner)) == sub
}

// cellDelta is one widened cell's observed per-iteration increment; node
// is its interned identity, so increments compare by pointer.
type cellDelta struct {
	v    int
	node *pathexpr.Node
}

// widen compares the loop-entry state with the state after one iteration
// and generalizes growing paths: p → p·δ becomes p·δ*.  It returns the
// widened state and the observed increments, in cell order.
func widen(entry, after *state) (*state, []cellDelta) {
	wid := newState(entry.nv)
	wid.modEpoch = maxInt(entry.modEpoch, after.modEpoch)
	wid.cells = make([]*pathexpr.Node, min(len(entry.cells), len(after.cells)))
	var deltas []cellDelta
	for i := range wid.cells {
		pe, p1 := entry.cells[i], after.cells[i]
		switch {
		case pe == nil || p1 == nil:
		case pe == p1:
			wid.cells[i] = pe
		default:
			if d, ok := componentSuffix(pe.Expr(), p1.Expr()); ok {
				wid.cells[i] = norm(pathexpr.Cat(pe.Expr(), pathexpr.Rep(d)))
				deltas = append(deltas, cellDelta{v: i % entry.nv, node: pathexpr.Intern(d)})
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

// structuralMod is the one place a destructive update (§3.4) takes
// effect, whether a store to a pointer field or a summarized callee's
// ModifiedFields.  It records the modification site and poisons the
// enclosing loops; it drops every access path that traverses the field and
// stales every handle reached through it, save the one the store is made
// through (-1 for a call).  Field "*" is an opaque call that may rewrite
// every field: every path but ε goes.
func (a *analyzer) structuralMod(st *state, field, label string, pos lang.Pos, through int) {
	if a.record {
		a.res.Mods = append(a.res.Mods, ModSite{Epoch: st.modEpoch, Field: field, Label: label, Pos: pos, Loop: a.innermost()})
	}
	st.modEpoch++
	for _, lc := range a.loops {
		lc.modFields[field] = true
	}
	for i, p := range st.cells {
		if p != nil && (field == "*" && p != epsNode || mentionsField(p.Expr(), field)) {
			st.cells[i] = nil
		}
	}
	a.markStale(st, field, pos, through)
}

// reassignEscaped applies the address-taken rule at a call or a store
// through a pointer: either may write any variable whose address was taken,
// so each address-taken struct pointer gets a fresh handle, its paths
// dropped and its guard version bumped.
func (a *analyzer) reassignEscaped(st *state) {
	for _, v := range a.escaped {
		if !a.isPointerVar(v) {
			continue
		}
		x := a.colID[v]
		st.dropVar(x)
		st.set(a.freshHandle(v), x, epsNode)
		a.ver.BumpVar(v)
	}
}

// innermost returns the loop the walk is in, nil outside loops.
func (a *analyzer) innermost() *Loop {
	if len(a.loops) == 0 {
		return nil
	}
	return a.loops[len(a.loops)-1].loop
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
		a.reassignEscaped(st)
		sum := a.summaries[call.Name]
		if sum == nil {
			// Unknown callee: the lenient default assumes it maintains the
			// axioms (Figure 1's insert); strict mode wipes the world.
			// Guard versions are invalidated either way — an unknown callee
			// may overwrite any field's VALUE even while preserving the
			// structural axioms.
			a.ver.BumpAllFields()
			if a.opts.CallsModifyStructure {
				a.structuralMod(st, "*", label, pos, -1)
			}
			return
		}
		for _, f := range sum.WrittenFields {
			a.ver.BumpField(f)
		}
		for _, f := range sum.ModifiedFields {
			a.structuralMod(st, f, label, pos, -1)
		}
		if sum.CallsUnknown {
			a.ver.BumpAllFields()
			if a.opts.CallsModifyStructure {
				a.structuralMod(st, "*", label, pos, -1)
			}
		}
	})
}

// recordReads records a read access for every var->field occurrence in e
// and checks every dereference e performs.
func (a *analyzer) recordReads(st *state, e lang.Expr, label string) {
	lang.WalkExprs(e, func(x lang.Expr) {
		switch v := x.(type) {
		case *lang.FieldAccess:
			a.access(st, label, v, false)
		case *lang.DerefExpr:
			a.checkDeref(st, v.Name, a.column(v.Name), v.Pos)
		case *lang.AddrExpr:
			a.escape(st, v.Name)
		}
	})
}

// access records the access base->field (in the recording pass) and checks
// the dereference of base.
func (a *analyzer) access(st *state, label string, fa *lang.FieldAccess, isWrite bool) {
	c := a.column(fa.Base)
	if a.record {
		a.recordAccess(st, label, fa, c, isWrite)
	}
	a.checkDeref(st, fa.Base, c, fa.Pos)
}

// column returns v's matrix column, -1 when v is not a pointer variable.
func (a *analyzer) column(v string) int {
	if c, ok := a.colID[v]; ok {
		return c
	}
	return -1
}

func (a *analyzer) recordAccess(st *state, label string, fa *lang.FieldAccess, c int, isWrite bool) {
	acc := Access{
		Label:    label,
		Stmt:     a.ordinal,
		Var:      fa.Base,
		Field:    fa.Field,
		Type:     a.varTypes[fa.Base],
		IsWrite:  isWrite,
		ModEpoch: st.modEpoch,
		Pos:      fa.Pos,
		Loop:     a.innermost(),
	}
	if c >= 0 {
		acc.Paths = a.colPaths(st, c)
	}
	acc.Guards, acc.InvGuards = a.guardSets()
	if len(a.loops) > 0 {
		acc.IterDeltas = a.iterDeltas(acc.Paths)
		for _, lc := range a.loops {
			for f := range lc.modFields {
				acc.LoopModFields = append(acc.LoopModFields, f)
			}
		}
		slices.Sort(acc.LoopModFields)
		acc.LoopModFields = slices.Compact(acc.LoopModFields)
	}
	a.res.Accesses = append(a.res.Accesses, acc)
}

// guardSets returns the guards dominating the current point and their
// subset that is invariant in every enclosing loop.
func (a *analyzer) guardSets() (all, inv guard.Set) {
	all = guard.Canon(a.guards)
	inv = all
	for _, lc := range a.loops {
		inv = inv.Filter(lc.invariant)
	}
	return all, inv
}

// iterDeltas returns the increments of the enclosing loops' iteration
// handles that anchor paths, in handle order.
func (a *analyzer) iterDeltas(paths HandlePaths) HandlePaths {
	delta := func(name string) (pathexpr.Expr, bool) {
		h := a.handleID[name]
		for _, lc := range a.loops {
			for _, it := range lc.iterDeltas {
				if it.h == h {
					return it.d, true
				}
			}
		}
		return nil, false
	}
	n := 0
	for _, p := range paths {
		if _, ok := delta(p.Handle); ok {
			n++
		}
	}
	if n == 0 {
		return nil
	}
	out := make(HandlePaths, 0, n)
	for _, p := range paths {
		if d, ok := delta(p.Handle); ok {
			out = append(out, HandlePath{p.Handle, d})
		}
	}
	return out
}
