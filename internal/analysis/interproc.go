package analysis

import (
	"sort"

	"repro/internal/lang"
	"repro/internal/pathexpr"
)

// Summary abstracts a callee for use at call sites: which pointer fields it
// may structurally modify (transitively), whether it calls functions the
// program does not define, and — for simple accessor functions — the access
// path its return value takes from one of its parameters.
type Summary struct {
	Name string
	// ModifiedFields lists pointer fields the function may store to,
	// including through calls to other defined functions.
	ModifiedFields []string
	// WrittenFields lists every struct field the function may write — data
	// fields as well as pointer fields, transitively through calls.  This
	// is the guard versioner's invalidation set at call sites: a branch
	// predicate reading any of these fields cannot survive the call.
	WrittenFields []string
	// CallsUnknown reports that the function (transitively) calls a
	// function the program does not define, whose effects are unknown.
	CallsUnknown bool
	// RetKnown reports the return value is param #RetParam advanced by
	// RetPath (only derived for straight-line pointer accessors).
	RetKnown bool
	RetParam int
	RetPath  pathexpr.Expr
}

// Summarize computes summaries for every function in the program.  The
// modified-field sets are a fixpoint over the call graph, so recursion and
// mutual recursion are handled; return paths are extracted only from
// loop-free bodies (typical accessors).
func Summarize(prog *lang.Program) map[string]*Summary {
	return summarize(prog, prog.Funcs)
}

// summarize computes the summaries of roots and of every function they
// reach through calls.  A summary depends only on its callees, so each one
// equals Summarize's.
func summarize(prog *lang.Program, roots []*lang.FuncDecl) map[string]*Summary {
	sums := make(map[string]*Summary, len(roots))
	work := make([]*lang.FuncDecl, 0, 8)
	for _, fn := range roots {
		sums[fn.Name] = &Summary{Name: fn.Name}
		work = append(work, fn)
	}

	// Direct structural stores and call edges.
	var edges []callEdge
	for len(work) > 0 {
		fn := work[len(work)-1]
		work = work[:len(work)-1]
		s := sums[fn.Name]
		modSet := map[string]bool{}
		writeSet := map[string]bool{}
		varTypes := map[string]string{}
		for _, p := range fn.Params {
			if p.Type.IsPointerToStruct() {
				varTypes[p.Name] = p.Type.Base
			}
		}
		lang.WalkStmts(fn.Body, func(st lang.Stmt) {
			switch v := st.(type) {
			case *lang.DeclStmt:
				for _, item := range v.Items {
					if item.Type.IsPointerToStruct() {
						varTypes[item.Name] = item.Type.Base
					}
				}
			case *lang.AssignStmt:
				if fa, ok := v.LHS.(*lang.FieldAccess); ok {
					writeSet[fa.Field] = true
					if isPointerFieldOf(prog, varTypes[fa.Base], fa.Field) {
						modSet[fa.Field] = true
					}
				}
			}
			lang.StmtExprs(st, func(e lang.Expr) {
				call, ok := e.(*lang.CallExpr)
				if !ok {
					return
				}
				callee := prog.Func(call.Name)
				if callee == nil {
					s.CallsUnknown = true
					return
				}
				edges = append(edges, callEdge{fn.Name, call.Name})
				if sums[call.Name] == nil {
					sums[call.Name] = &Summary{Name: call.Name}
					work = append(work, callee)
				}
			})
		})
		for f := range modSet {
			s.ModifiedFields = append(s.ModifiedFields, f)
		}
		sort.Strings(s.ModifiedFields)
		for f := range writeSet {
			s.WrittenFields = append(s.WrittenFields, f)
		}
		sort.Strings(s.WrittenFields)
	}

	// Propagate modified fields and unknown-call taint to a fixpoint.
	for changed := true; changed; {
		changed = false
		for _, e := range edges {
			from, to := sums[e.from], sums[e.to]
			if to.CallsUnknown && !from.CallsUnknown {
				from.CallsUnknown = true
				changed = true
			}
			have := map[string]bool{}
			for _, f := range from.ModifiedFields {
				have[f] = true
			}
			for _, f := range to.ModifiedFields {
				if !have[f] {
					from.ModifiedFields = append(from.ModifiedFields, f)
					changed = true
				}
			}
			haveW := map[string]bool{}
			for _, f := range from.WrittenFields {
				haveW[f] = true
			}
			for _, f := range to.WrittenFields {
				if !haveW[f] {
					from.WrittenFields = append(from.WrittenFields, f)
					changed = true
				}
			}
		}
	}
	for _, s := range sums {
		sort.Strings(s.ModifiedFields)
		sort.Strings(s.WrittenFields)
	}

	// Return paths for loop-free accessors.
	for _, fn := range prog.Funcs {
		if s := sums[fn.Name]; s != nil {
			extractReturnPath(prog, fn, s)
		}
	}
	return sums
}

// callEdge is one static call-graph edge between defined functions.
type callEdge struct{ from, to string }

func isPointerFieldOf(prog *lang.Program, structName, field string) bool {
	sd := prog.Struct(structName)
	if sd == nil {
		return false
	}
	fd := sd.Field(field)
	return fd != nil && fd.Type.IsPointerToStruct()
}

// extractReturnPath derives the param-relative path of the return value for
// loop-free bodies by symbolic forward substitution: each pointer variable
// is tracked as (param index, path) when derivable.
func extractReturnPath(prog *lang.Program, fn *lang.FuncDecl, s *Summary) {
	// Bail out on loops or branching (joins could merge different params).
	simple := true
	lang.WalkStmts(fn.Body, func(st lang.Stmt) {
		switch st.(type) {
		case *lang.WhileStmt, *lang.IfStmt:
			simple = false
		}
	})
	if !simple {
		return
	}

	type origin struct {
		param int
		path  pathexpr.Expr
	}
	env := map[string]origin{}
	varTypes := map[string]string{}
	for i, p := range fn.Params {
		if p.Type.IsPointerToStruct() {
			env[p.Name] = origin{param: i, path: pathexpr.Eps}
			varTypes[p.Name] = p.Type.Base
		}
	}
	var ret *origin
	for _, st := range fn.Body.Stmts {
		switch v := st.(type) {
		case *lang.DeclStmt:
			for _, item := range v.Items {
				if item.Type.IsPointerToStruct() {
					varTypes[item.Name] = item.Type.Base
				}
			}
		case *lang.AssignStmt:
			lhs, ok := v.LHS.(*lang.Ident)
			if !ok {
				continue
			}
			switch rhs := v.RHS.(type) {
			case *lang.Ident:
				if o, ok := env[rhs.Name]; ok {
					env[lhs.Name] = o
				} else {
					delete(env, lhs.Name)
				}
			case *lang.FieldAccess:
				o, ok := env[rhs.Base]
				if ok && isPointerFieldOf(prog, varTypes[rhs.Base], rhs.Field) {
					env[lhs.Name] = origin{param: o.param, path: pathexpr.Cat(o.path, pathexpr.F(rhs.Field))}
					if varTypes[lhs.Name] == "" {
						varTypes[lhs.Name] = fieldTarget(prog, varTypes[rhs.Base], rhs.Field)
					}
				} else {
					delete(env, lhs.Name)
				}
			default:
				delete(env, lhs.Name)
			}
		case *lang.ReturnStmt:
			if id, ok := v.Value.(*lang.Ident); ok {
				if o, ok := env[id.Name]; ok {
					ret = &o
				}
			} else if fa, ok := v.Value.(*lang.FieldAccess); ok {
				if o, ok := env[fa.Base]; ok && isPointerFieldOf(prog, varTypes[fa.Base], fa.Field) {
					ret = &origin{param: o.param, path: pathexpr.Cat(o.path, pathexpr.F(fa.Field))}
				}
			}
		}
	}
	if ret != nil {
		s.RetKnown = true
		s.RetParam = ret.param
		s.RetPath = ret.path
	}
}

func fieldTarget(prog *lang.Program, structName, field string) string {
	sd := prog.Struct(structName)
	if sd == nil {
		return ""
	}
	fd := sd.Field(field)
	if fd == nil {
		return ""
	}
	return fd.Type.Base
}
