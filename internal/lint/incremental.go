package lint

import (
	"fmt"
	"hash/fnv"
	"sort"

	"repro/internal/lang"
	"repro/internal/telemetry"
)

// fpSchema versions the analysis fingerprint.  It covers everything the
// fingerprint does NOT hash explicitly — the pass list, the diagnostic
// wording, the canonical-rendering grammar.  Bump it whenever any of those
// change, and every stored diagnostic is invalidated at once.
const fpSchema = "aptlint-fp-v1"

// unitFingerprints is the per-declaration fingerprint table of one
// translation unit.  A function's fingerprint hashes, via FNV-1a:
//
//   - the schema version above,
//   - the canonical (position-free) rendering of every struct declaration
//     in the unit, including its axiom set — the axiom-set component of the
//     paper's dependence test,
//   - the function's own canonical AST, and
//   - the base fingerprints of every transitive callee, sorted — so an
//     edit inside a callee dirties all of its interprocedural dependents.
//
// Two parses produce equal fingerprints exactly when every input the
// analysis passes consult is unchanged; source positions are excluded, so
// whitespace-only edits keep fingerprints (and reused diagnostics, after
// line rebasing) valid.
type unitFingerprints struct {
	funcs   map[string]uint64
	structs map[string]uint64
	// spans locates each top-level declaration by start line, sorted; a
	// diagnostic belongs to the last declaration starting at or before it.
	spans []declSpan
}

// declSpan is one top-level declaration: its start line, owner key
// ("f:name" for functions, "s:name" for structs) and fingerprint.
type declSpan struct {
	Line  int
	Owner string
	FP    uint64
}

func hashString(h uint64, s string) uint64 {
	f := fnv.New64a()
	var b [8]byte
	for i := range b {
		b[i] = byte(h >> (8 * i))
	}
	f.Write(b[:])
	f.Write([]byte(s))
	return f.Sum64()
}

func hash64(h, v uint64) uint64 {
	return hashString(h, fmt.Sprintf("%016x", v))
}

// fingerprints computes the fingerprint table of a parsed unit.
func fingerprints(prog *lang.Program) *unitFingerprints {
	u := &unitFingerprints{
		funcs:   map[string]uint64{},
		structs: map[string]uint64{},
	}

	// Struct fingerprints, and the unit-wide hash of all of them: any
	// struct or axiom edit can change field resolution, inferred type
	// axioms, and every prover verdict, so it dirties every function.
	names := make([]string, 0, len(prog.Structs))
	for _, s := range prog.Structs {
		u.structs[s.Name] = hashString(hashString(0, fpSchema), lang.CanonStruct(s))
		names = append(names, s.Name)
	}
	sort.Strings(names)
	structsAll := hashString(0, fpSchema)
	for _, n := range names {
		structsAll = hash64(hashString(structsAll, n), u.structs[n])
	}

	// Base fingerprints: schema + all structs + the function's own
	// canonical AST.
	base := make(map[string]uint64, len(prog.Funcs))
	for _, fn := range prog.Funcs {
		base[fn.Name] = hashString(hashString(structsAll, "func"), lang.CanonFunc(fn))
	}

	// Final fingerprints mix in the sorted base fingerprints of every
	// transitive callee (recursion-safe: the reachable set is computed
	// over the call graph, cycles included).
	callees := callGraph(prog)
	for _, fn := range prog.Funcs {
		reach := reachable(fn.Name, callees)
		sort.Strings(reach)
		h := base[fn.Name]
		for _, callee := range reach {
			if bf, ok := base[callee]; ok && callee != fn.Name {
				h = hash64(hashString(h, callee), bf)
			}
		}
		u.funcs[fn.Name] = h
	}

	for _, s := range prog.Structs {
		u.spans = append(u.spans, declSpan{Line: s.Pos.Line, Owner: "s:" + s.Name, FP: u.structs[s.Name]})
	}
	for _, fn := range prog.Funcs {
		u.spans = append(u.spans, declSpan{Line: fn.Pos.Line, Owner: "f:" + fn.Name, FP: u.funcs[fn.Name]})
	}
	sort.Slice(u.spans, func(i, j int) bool { return u.spans[i].Line < u.spans[j].Line })
	return u
}

// callGraph returns each function's direct callees (defined functions only).
func callGraph(prog *lang.Program) map[string][]string {
	defined := map[string]bool{}
	for _, fn := range prog.Funcs {
		defined[fn.Name] = true
	}
	out := map[string][]string{}
	for _, fn := range prog.Funcs {
		seen := map[string]bool{}
		lang.WalkStmts(fn.Body, func(st lang.Stmt) {
			lang.StmtExprs(st, func(e lang.Expr) {
				if c, ok := e.(*lang.CallExpr); ok && defined[c.Name] && !seen[c.Name] {
					seen[c.Name] = true
					out[fn.Name] = append(out[fn.Name], c.Name)
				}
			})
		})
		sort.Strings(out[fn.Name])
	}
	return out
}

// reachable returns every function reachable from start through the call
// graph, excluding functions with no edges recorded.
func reachable(start string, g map[string][]string) []string {
	seen := map[string]bool{}
	var out []string
	var visit func(string)
	visit = func(n string) {
		for _, c := range g[n] {
			if !seen[c] {
				seen[c] = true
				out = append(out, c)
				visit(c)
			}
		}
	}
	visit(start)
	return out
}

// ownerAt returns the declaration owning the given source line.
func (u *unitFingerprints) ownerAt(line int) (declSpan, bool) {
	idx := sort.Search(len(u.spans), func(i int) bool { return u.spans[i].Line > line }) - 1
	if idx < 0 {
		return declSpan{}, false
	}
	return u.spans[idx], true
}

// stamp assigns each diagnostic the fingerprint of its owning declaration.
func (u *unitFingerprints) stamp(diags []Diagnostic) {
	for i := range diags {
		if sp, ok := u.ownerAt(diags[i].Pos.Line); ok {
			diags[i].Fingerprint = sp.FP
		}
	}
}

// RunStats reports what one incremental run actually did.
type RunStats struct {
	// Analyzed and Reused count top-level declarations: Analyzed were
	// fingerprint-dirty and re-linted, Reused kept their stored
	// diagnostics (line-rebased).
	Analyzed int
	Reused   int
	// Diags counts the merged diagnostics returned.
	Diags int
}

// IncrementalDriver runs a Driver incrementally: per-declaration
// fingerprints decide what to re-analyze, a Store carries fingerprints and
// diagnostics between runs, and shared Caches carry the engine's proof
// memo and compiled DFAs between runs.
type IncrementalDriver struct {
	Driver *Driver
	Store  *Store
	Caches *Caches
}

// NewIncremental wraps a driver with a fresh store and cache set.
func NewIncremental(d *Driver) *IncrementalDriver {
	return &IncrementalDriver{Driver: d, Store: NewStore(), Caches: NewCaches()}
}

// Run incrementally lints one parsed unit: declarations whose fingerprint
// matches the store reuse their stored diagnostics (rebased to their new
// start lines); everything else — edited declarations, their transitive
// callers, and declarations of edited structs — is re-analyzed.  The store
// entry for the file is replaced with the merged result.
func (inc *IncrementalDriver) Run(file string, prog *lang.Program) ([]Diagnostic, RunStats, error) {
	return inc.run(file, prog, inc.Driver.tel)
}

// run is Run reporting through tel instead of the driver's Set (watch mode
// hands it each re-lint's phase Set).
func (inc *IncrementalDriver) run(file string, prog *lang.Program, tel *telemetry.Set) ([]Diagnostic, RunStats, error) {
	fps := fingerprints(prog)
	prev := inc.Store.Files[file]

	var stats RunStats
	ctx := &Context{
		File: file, Prog: prog,
		Telemetry: tel, Workers: inc.Driver.workers,
		Caches: inc.Caches, fps: fps,
	}
	var reused []Diagnostic
	if prev == nil {
		// First sight of the file: everything is dirty, no filters.
		stats.Analyzed = len(fps.spans)
	} else {
		ctx.OnlyFuncs = map[string]bool{}
		ctx.OnlyStructs = map[string]bool{}
		for _, sp := range fps.spans {
			old, ok := prev.Owners[sp.Owner]
			if ok && old.FP == sp.FP {
				stats.Reused++
				reused = append(reused, rebase(old.Diags, sp.Line-old.StartLine)...)
				continue
			}
			stats.Analyzed++
			if sp.Owner[0] == 'f' {
				ctx.OnlyFuncs[sp.Owner[2:]] = true
			} else {
				ctx.OnlyStructs[sp.Owner[2:]] = true
			}
		}
	}

	diags, err := inc.Driver.RunContext(ctx)
	if err != nil {
		return nil, stats, err
	}
	diags = append(diags, reused...)
	Sort(diags)
	stats.Diags = len(diags)

	// Rebuild the store entry from the merged result.
	state := &FileState{Owners: map[string]*OwnerState{}}
	for _, sp := range fps.spans {
		state.Owners[sp.Owner] = &OwnerState{FP: sp.FP, StartLine: sp.Line}
	}
	for _, d := range diags {
		if sp, ok := fps.ownerAt(d.Pos.Line); ok {
			os := state.Owners[sp.Owner]
			os.Diags = append(os.Diags, d)
		}
	}
	inc.Store.Files[file] = state
	return diags, stats, nil
}

// rebase shifts stored diagnostics by the line delta between the owning
// declaration's old and new start lines.  The fingerprint matching that
// allowed reuse guarantees the declaration's canonical AST is unchanged, so
// every position inside it shifts uniformly.
func rebase(diags []Diagnostic, delta int) []Diagnostic {
	if delta == 0 {
		return append([]Diagnostic(nil), diags...)
	}
	out := make([]Diagnostic, len(diags))
	for i, d := range diags {
		d.Pos.Line += delta
		if len(d.Related) > 0 {
			rel := make([]Related, len(d.Related))
			for j, r := range d.Related {
				r.Pos.Line += delta
				rel[j] = r
			}
			d.Related = rel
		}
		out[i] = d
	}
	return out
}
