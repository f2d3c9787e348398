// Package lint is a pass-based static-analysis driver over the APT stack:
// it turns what the prover, automata, and memory-reference analysis already
// know into source-anchored diagnostics, the way §5 of the paper uses
// deptest's No/Yes/Maybe verdicts to drive parallelization decisions.
//
// A Pass inspects one parsed translation unit through a shared Context and
// reports Diagnostics.  The Driver runs a pass list in order, records
// per-pass telemetry spans and counters, and returns the diagnostics sorted
// by source position.  Five passes ship by default:
//
//	axiom-consistency        contradictory axiom sets (§3.1 axioms)
//	handle-safety            nil/uninitialized dereferences, stale handles
//	invariant-maintenance    §3.4 axiom invalidation at update sites
//	parallelization-legality per-loop DOALL verdicts from deptest (§5)
//	lang-hygiene             undefined fields/structs, dead stores, …
//
// The dataflow facts come from one walk: handle-safety, invariant-
// maintenance and parallelization-legality read the memoized
// analysis.Result of each function (its hazards, modification sites and
// loops) instead of interpreting the body again.
package lint

import (
	"fmt"
	"sort"

	"repro/internal/analysis"
	"repro/internal/engine"
	"repro/internal/lang"
	"repro/internal/telemetry"
)

// Severity ranks a diagnostic.  Only Error severities make aptlint exit
// non-zero.
type Severity int

// Severities, in increasing order.
const (
	Info Severity = iota
	Warning
	Error
)

func (s Severity) String() string {
	switch s {
	case Info:
		return "info"
	case Warning:
		return "warning"
	case Error:
		return "error"
	}
	return "invalid"
}

// Related is a secondary source location attached to a diagnostic (the
// modification site behind a stale-handle warning, the axiom behind a
// contradiction, …).
type Related struct {
	Pos     lang.Pos
	Message string
}

// Diagnostic is one finding, anchored at a source position.
type Diagnostic struct {
	Pos      lang.Pos
	Severity Severity
	// Category is the reporting pass's name (or "parse" for frontend
	// failures surfaced by the CLI).
	Category string
	Message  string
	Related  []Related
	// Fingerprint is the analysis fingerprint of the top-level declaration
	// the diagnostic belongs to (see fingerprints): the hash of everything
	// that can change this diagnostic — the declaration's canonical AST,
	// the unit's struct declarations and axiom sets, the canonical ASTs of
	// every transitive callee, and the pass schema version.  The
	// incremental driver reuses stored diagnostics exactly when the
	// fingerprint is unchanged.  Zero for diagnostics outside any
	// declaration (parse errors).
	Fingerprint uint64
	// UpgradedFromMaybe marks a verdict the path-sensitivity layer
	// upgraded: without guard analysis the diagnostic would have reported
	// an unproved ("maybe") dependence or hazard.
	UpgradedFromMaybe bool
}

// Pass is one analysis run by the driver.
type Pass interface {
	// Name is the pass's stable identifier, used as the diagnostic category
	// and in telemetry instrument names.
	Name() string
	// Doc is a one-line description for -passes listings.
	Doc() string
	// Run inspects ctx.Prog and reports diagnostics via ctx.Report.  An
	// error aborts the whole lint run (reserved for internal failures;
	// findings about the program are diagnostics, not errors).
	Run(ctx *Context) error
}

// Context carries the unit under analysis and memoizes the expensive
// artifacts passes share: per-function memory-reference analyses and the
// one batched query engine that answers every function's queries.
type Context struct {
	// File is the display name of the unit (used only in diagnostics
	// rendering; the driver never touches the filesystem).
	File string
	// Prog is the parsed translation unit.
	Prog *lang.Program
	// Telemetry receives pass spans, opened under its Parent, and counters;
	// nil disables.  While a pass runs, the driver moves it under that
	// pass's span.
	Telemetry *telemetry.Set
	// Workers is the pool width the batched query engine fans dependence
	// queries across (minimum 1).  Widths above 1 keep every verdict
	// deterministic but may vary the proof-search statistics quoted in
	// diagnostics, so the golden-file harness pins 1.
	Workers int
	// OnlyFuncs, when non-nil, restricts function-scoped passes to the
	// named functions; OnlyStructs does the same for struct-scoped passes.
	// The incremental driver sets them to the fingerprint-dirty subset of
	// the unit.  Passes consult them through SkipFunc and SkipStruct.
	OnlyFuncs   map[string]bool
	OnlyStructs map[string]bool
	// Caches, when non-nil, holds the engine that outlives this run.  Its
	// proof memo keys verdicts by axiom-set identity — a pure function of
	// axiom content — so reusing it across re-parses of edited source is
	// sound, and it carries proofs and compiled DFAs from run to run.
	Caches *Caches

	pass     string
	diags    []Diagnostic
	analyses map[string]*analysis.Result
	anErrs   map[string]error
	engine   *engine.Engine
	fps      *unitFingerprints
}

// SkipFunc reports whether function-scoped passes must skip the named
// function this run (it is not in the incremental driver's dirty set).
func (c *Context) SkipFunc(name string) bool {
	return c.OnlyFuncs != nil && !c.OnlyFuncs[name]
}

// SkipStruct is SkipFunc for struct-scoped passes.
func (c *Context) SkipStruct(name string) bool {
	return c.OnlyStructs != nil && !c.OnlyStructs[name]
}

// Caches holds the cross-run state of the incremental driver: one batched
// query engine, with the DFA cache and proof memo it owns.  Every verdict the engine produces depends only on axiom content, never
// on source positions, so a cache hit after a re-parse is exact.  Analysis
// results are deliberately NOT cached across runs: they embed source
// positions, which shift under edits that leave the fingerprint unchanged.
type Caches struct {
	// Engine is built by the first run that needs one.
	Engine *engine.Engine
}

// NewCaches returns an empty cross-run cache set.
func NewCaches() *Caches { return &Caches{} }

// Report files a diagnostic.  An empty Category is filled with the running
// pass's name.
func (c *Context) Report(d Diagnostic) {
	if d.Category == "" {
		d.Category = c.pass
	}
	c.diags = append(c.diags, d)
}

// Reportf files a related-free diagnostic.
func (c *Context) Reportf(pos lang.Pos, sev Severity, format string, args ...any) {
	c.Report(Diagnostic{Pos: pos, Severity: sev, Message: fmt.Sprintf(format, args...)})
}

// Analysis returns the memoized memory-reference analysis of the named
// function, running it on first use with the full option set (inferred type
// axioms on, loop invariants not assumed — the conservative configuration).
func (c *Context) Analysis(fn string) (*analysis.Result, error) {
	if c.analyses == nil {
		c.analyses = make(map[string]*analysis.Result)
		c.anErrs = make(map[string]error)
	}
	if res, ok := c.analyses[fn]; ok {
		return res, c.anErrs[fn]
	}
	res, err := analysis.Analyze(c.Prog, fn, analysis.Options{
		InferTypeAxioms: true,
		Telemetry:       c.Telemetry,
	})
	c.analyses[fn], c.anErrs[fn] = res, err
	return res, err
}

// Engine returns the context's batched query engine, building it on first
// use (or reusing the incremental driver's cross-run one).  Passes that
// generate whole query sets (parallelization legality judges every
// loop-carried pair) answer them through one Batch call, sharing compiled
// DFAs and canonicalized prover verdicts across the queries — and across
// loops and functions.  Each query carries its own axiom set, so one
// engine serves every function of the unit.
func (c *Context) Engine() *engine.Engine {
	if c.engine == nil && c.Caches != nil {
		c.engine = c.Caches.Engine
	}
	if c.engine == nil {
		c.engine = engine.New(engine.Options{
			Workers:   c.Workers,
			Telemetry: c.Telemetry,
		})
		if c.Caches != nil {
			c.Caches.Engine = c.engine
		}
	}
	return c.engine
}

// Driver runs a fixed pass list over translation units.
type Driver struct {
	passes  []Pass
	tel     *telemetry.Set
	workers int
}

// NewDriver builds a driver over the given passes (DefaultPasses when none
// are given), reporting telemetry through tel (nil disables).
func NewDriver(tel *telemetry.Set, passes ...Pass) *Driver {
	if len(passes) == 0 {
		passes = DefaultPasses()
	}
	return &Driver{passes: passes, tel: tel}
}

// Passes returns the driver's pass list in run order.
func (d *Driver) Passes() []Pass { return d.passes }

// SetWorkers sets the engine pool width for query-batching passes
// (default 1, fully deterministic output).  Returns the driver for
// chaining.
func (d *Driver) SetWorkers(n int) *Driver {
	d.workers = n
	return d
}

// Run lints one parsed unit and returns its diagnostics sorted by position.
func (d *Driver) Run(file string, prog *lang.Program) ([]Diagnostic, error) {
	ctx := &Context{File: file, Prog: prog, Telemetry: d.tel, Workers: d.workers}
	return d.RunContext(ctx)
}

// RunContext lints through a caller-built Context (the incremental driver
// sets dirty-set filters and cross-run caches on it) and returns the
// diagnostics sorted by position, each stamped with the fingerprint of the
// declaration it belongs to.  Each pass runs in a lint.pass span under
// ctx.Telemetry's parent and sees ctx.Telemetry moved under that span, so
// the analyses and batches it starts sit in one tree.
func (d *Driver) RunContext(ctx *Context) ([]Diagnostic, error) {
	file, prog, tel := ctx.File, ctx.Prog, ctx.Telemetry
	defer func() { ctx.Telemetry = tel }()
	for _, p := range d.passes {
		sp := tel.Trace().StartSpan("lint.pass", tel.Parent())
		ctx.Telemetry = tel.Under(sp.ID())
		before := len(ctx.diags)
		ctx.pass = p.Name()
		err := p.Run(ctx)
		n := len(ctx.diags) - before
		tel.Counter("lint.pass." + p.Name() + ".diags").Add(int64(n))
		sp.End(
			telemetry.String("pass", p.Name()),
			telemetry.String("file", file),
			telemetry.Int("diags", n),
			telemetry.Bool("ok", err == nil))
		if err != nil {
			return nil, fmt.Errorf("lint: pass %s: %w", p.Name(), err)
		}
	}
	Sort(ctx.diags)
	if ctx.fps == nil {
		ctx.fps = fingerprints(prog)
	}
	ctx.fps.stamp(ctx.diags)
	tel.Counter("lint.files").Add(1)
	for _, diag := range ctx.diags {
		tel.Counter("lint.diags_" + diag.Severity.String()).Add(1)
	}
	return ctx.diags, nil
}

// Sort orders diagnostics by position, then severity (most severe first),
// then category and message — a deterministic order for golden files.
func Sort(diags []Diagnostic) {
	sort.SliceStable(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Col != b.Pos.Col {
			return a.Pos.Col < b.Pos.Col
		}
		if a.Severity != b.Severity {
			return a.Severity > b.Severity
		}
		if a.Category != b.Category {
			return a.Category < b.Category
		}
		return a.Message < b.Message
	})
}

// HasErrors reports whether any diagnostic is Error severity — the aptlint
// exit-status rule.
func HasErrors(diags []Diagnostic) bool {
	for _, d := range diags {
		if d.Severity == Error {
			return true
		}
	}
	return false
}

// DefaultPasses returns the standard pass list in run order.
func DefaultPasses() []Pass {
	return []Pass{
		AxiomConsistency(),
		LangHygiene(),
		HandleSafety(),
		InvariantMaintenance(),
		ParallelizationLegality(),
	}
}

// PassesByName resolves names against DefaultPasses.
func PassesByName(names []string) ([]Pass, error) {
	all := DefaultPasses()
	byName := make(map[string]Pass, len(all))
	for _, p := range all {
		byName[p.Name()] = p
	}
	var out []Pass
	for _, n := range names {
		p, ok := byName[n]
		if !ok {
			return nil, fmt.Errorf("lint: unknown pass %q", n)
		}
		out = append(out, p)
	}
	return out, nil
}
