package scenario

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/heap"
	"repro/internal/lang"
)

// Config drives one farm run.
type Config struct {
	// Seed seeds the generator; the same seed always produces the same
	// programs, heaps, and queries.
	Seed int64
	// Programs is how many scenario programs to generate and check.
	Programs int
	// Families restricts the run to the named families (empty = all).
	Families []string
	// Workers and QueryTimeout configure each family's engine.
	Workers      int
	QueryTimeout time.Duration
	// ServeURL, when set, additionally sends every program's batch to a
	// live aptserved endpoint (POST ServeURL/v1/batch) and cross-checks
	// the answers — doubling as a load test of the serving tier.
	ServeURL string
	// Minimize shrinks each diverging program before reporting it.
	Minimize bool
	// ForceNo is a test hook: every local verdict is overridden to No
	// before the oracle check, proving the farm detects planted unsound
	// verdicts (the teeth test).
	ForceNo bool
	// Logf, when set, receives progress lines.
	Logf func(format string, args ...any)
}

// Report is the farm's summary, serialized into BENCH_fuzzfarm.json.
type Report struct {
	Seed           int64          `json:"seed"`
	Programs       int            `json:"programs"`
	QueryLines     int            `json:"query_lines"`
	SkippedLines   int            `json:"skipped_lines"`
	Queries        int            `json:"queries"`
	Verdicts       map[string]int `json:"verdicts"`
	OracleRuns     int            `json:"oracle_runs"`
	FamilyPrograms map[string]int `json:"family_programs"`

	Divergences         int            `json:"divergences"`
	DivergencesByKind   map[string]int `json:"divergences_by_kind"`
	SoundnessViolations int            `json:"soundness_violations"`
	// Softenings counts serve answers degraded toward Maybe relative to
	// the local verdict (timeout tolerance, not a divergence).
	Softenings int `json:"softenings"`

	ElapsedMS     int64   `json:"elapsed_ms"`
	QueriesPerSec float64 `json:"queries_per_sec"`
}

// Divergence kinds.
const (
	// KindSoundness: a No verdict coexists with a concrete conflicting
	// access pair on a conforming heap — the headline contract violation.
	KindSoundness = "soundness"
	// KindExecError: a generated program failed to execute on a conforming
	// heap (null dereference or exhausted step budget) — a harness bug.
	KindExecError = "exec-error"
	// KindServeMismatch: the local engine and the aptserved endpoint gave
	// contradictory definite answers (No against Yes) for one query line.
	KindServeMismatch = "serve-mismatch"
)

// HeapEdge is one edge of a serialized heap.
type HeapEdge struct {
	From  int    `json:"from"`
	Field string `json:"field"`
	To    int    `json:"to"`
}

// HeapSnapshot serializes a concrete heap for replay.
type HeapSnapshot struct {
	N     int        `json:"n"`
	Root  int        `json:"root"`
	Edges []HeapEdge `json:"edges"`
}

// snapshotHeap serializes g.
func snapshotHeap(g *heap.Graph, root heap.Vertex) *HeapSnapshot {
	s := &HeapSnapshot{N: g.NumVertices(), Root: int(root)}
	for _, f := range g.Fields() {
		for v := 0; v < g.NumVertices(); v++ {
			if w, ok := g.Edge(heap.Vertex(v), f); ok {
				s.Edges = append(s.Edges, HeapEdge{From: v, Field: f, To: int(w)})
			}
		}
	}
	return s
}

// Graph rebuilds the serialized heap.
func (s *HeapSnapshot) Graph() (*heap.Graph, error) {
	g := heap.New(s.N)
	for _, e := range s.Edges {
		if e.From < 0 || e.From >= s.N || e.To < 0 || e.To >= s.N {
			return nil, fmt.Errorf("scenario: heap edge %d-%s->%d out of range (n=%d)", e.From, e.Field, e.To, s.N)
		}
		g.SetEdge(heap.Vertex(e.From), e.Field, heap.Vertex(e.To))
	}
	return g, nil
}

// Divergence is one cross-check failure, in the exact shape written to a
// regression artifact.
type Divergence struct {
	Version int    `json:"version"`
	Kind    string `json:"kind"`
	Family  string `json:"family"`
	// Program is the full rendered mini-C source (post-minimization when
	// the farm ran with Minimize).
	Program string `json:"program"`
	Fn      string `json:"fn"`
	// NInts is the number of int parameters (the oracle sweeps all 0/1
	// combinations).
	NInts int `json:"n_ints"`
	// Query is the diverging line; zero-valued for exec-error kinds.
	Query QueryLine `json:"query"`
	// Verdict is the definite answer under test ("no", or "no-vs-yes" for
	// serve mismatches).
	Verdict string `json:"verdict,omitempty"`
	Detail  string `json:"detail"`
	// Heap is the generated concrete instance the program ran against.
	Heap *HeapSnapshot `json:"heap"`
}

// Farm is one configured run.
type Farm struct {
	cfg    Config
	rng    *rand.Rand
	report *Report
	// eng answers every family's queries, each under its own axiom set.
	eng   *engine.Engine
	divs  []*Divergence
	serve *serveClient
}

// NewFarm validates the configuration.
func NewFarm(cfg Config) (*Farm, error) {
	if cfg.Programs <= 0 {
		cfg.Programs = 100
	}
	if cfg.QueryTimeout <= 0 {
		cfg.QueryTimeout = 200 * time.Millisecond
	}
	f := &Farm{
		cfg: cfg,
		rng: rand.New(rand.NewSource(cfg.Seed)),
		report: &Report{
			Seed:              cfg.Seed,
			Verdicts:          map[string]int{},
			FamilyPrograms:    map[string]int{},
			DivergencesByKind: map[string]int{},
		},
		eng: engine.New(engine.Options{
			Workers:      cfg.Workers,
			QueryTimeout: cfg.QueryTimeout,
		}),
	}
	if cfg.ServeURL != "" {
		f.serve = newServeClient(cfg.ServeURL)
	}
	return f, nil
}

// families resolves the configured family subset.
func (f *Farm) families() ([]*Family, error) {
	if len(f.cfg.Families) == 0 {
		return Families(), nil
	}
	var out []*Family
	for _, name := range f.cfg.Families {
		fam := FamilyByName(name)
		if fam == nil {
			return nil, fmt.Errorf("scenario: unknown family %q", name)
		}
		out = append(out, fam)
	}
	return out, nil
}

func (f *Farm) logf(format string, args ...any) {
	if f.cfg.Logf != nil {
		f.cfg.Logf(format, args...)
	}
}

// Run generates and checks cfg.Programs scenario programs, returning the
// report and every divergence found.  A returned error means the farm
// itself failed (a malformed configuration or an unreachable serve
// endpoint), not that a divergence was found.
func (f *Farm) Run(ctx context.Context) (*Report, []*Divergence, error) {
	fams, err := f.families()
	if err != nil {
		return nil, nil, err
	}
	start := time.Now()
	for i := 0; i < f.cfg.Programs; i++ {
		if err := ctx.Err(); err != nil {
			break
		}
		fam := fams[i%len(fams)]
		sp := GenerateSpec(fam, f.rng)
		n := 1 + f.rng.Intn(fam.MaxHeap)
		g, root := fam.Generate(f.rng, n)
		if err := f.checkProgram(ctx, fam, sp, g, root); err != nil {
			return nil, nil, fmt.Errorf("program %d (family %s): %w", i, fam.Name, err)
		}
		f.report.Programs++
		f.report.FamilyPrograms[fam.Name]++
		if f.cfg.Logf != nil && (i+1)%50 == 0 {
			f.logf("checked %d/%d programs, %d queries, %d divergences",
				i+1, f.cfg.Programs, f.report.Queries, f.report.Divergences)
		}
	}
	f.report.ElapsedMS = time.Since(start).Milliseconds()
	if f.report.ElapsedMS > 0 {
		f.report.QueriesPerSec = float64(f.report.Queries) * 1000 / float64(f.report.ElapsedMS)
	}
	return f.report, f.divs, nil
}

// lineVerdict folds the outcomes of one query line: "no" only when every
// expanded query answered No, "yes" when any answered Yes, else "maybe".
func lineVerdict(outs []core.Outcome) string {
	verdict := "no"
	for _, o := range outs {
		switch o.Result {
		case core.Yes:
			return "yes"
		case core.Maybe:
			verdict = "maybe"
		}
	}
	if len(outs) == 0 {
		return "maybe"
	}
	return verdict
}

// checkProgram renders, analyzes, proves, and cross-checks one scenario.
func (f *Farm) checkProgram(ctx context.Context, fam *Family, sp *progSpec, g *heap.Graph, root heap.Vertex) error {
	src := sp.Render()
	prog, err := lang.Parse(src)
	if err != nil {
		return fmt.Errorf("generated program does not parse: %v\n%s", err, src)
	}
	res, err := analysis.Analyze(prog, "scenario", analysis.Options{})
	if err != nil {
		return fmt.Errorf("generated program does not analyze: %v\n%s", err, src)
	}

	// Expand each candidate query line; lines the analysis cannot anchor
	// (e.g. an aux access without a usable iteration handle) are skipped.
	lines := sp.queryLines()
	var (
		kept    []QueryLine
		queries []core.Query
		spans   [][2]int // query index range per kept line
	)
	for _, q := range lines {
		qs, err := res.QueriesFor(q.Mode, q.A, q.B)
		if err != nil || len(qs) == 0 {
			f.report.SkippedLines++
			continue
		}
		spans = append(spans, [2]int{len(queries), len(queries) + len(qs)})
		queries = append(queries, qs...)
		kept = append(kept, q)
	}
	f.report.QueryLines += len(kept)
	f.report.Queries += len(queries)
	if len(kept) == 0 {
		return nil
	}

	outs := f.eng.Batch(ctx, queries)
	verdicts := make([]string, len(kept))
	for i, span := range spans {
		verdicts[i] = lineVerdict(outs[span[0]:span[1]])
		if f.cfg.ForceNo {
			verdicts[i] = "no"
		}
		f.report.Verdicts[verdicts[i]]++
	}

	// Serve cross-check: same program, same lines, live endpoint.
	serveVerdicts := map[int]string{}
	if f.serve != nil {
		texts := make([]string, len(kept))
		for i, q := range kept {
			texts[i] = q.Text
		}
		sv, err := f.serve.batchVerdicts(ctx, src, "scenario", texts)
		if err != nil {
			return fmt.Errorf("serve cross-check: %w", err)
		}
		for i, v := range sv {
			serveVerdicts[i] = v
			local := verdicts[i]
			if (local == "no" && v == "yes") || (local == "yes" && v == "no") {
				f.recordDivergence(fam, sp, src, kept[i], g, root, KindServeMismatch, "no-vs-yes",
					fmt.Sprintf("local verdict %q, serve verdict %q for %q", local, v, kept[i].Text))
			} else if local != v && (local == "no" || v == "no") {
				f.report.Softenings++
			}
		}
	}

	// Oracle: concrete generated instance plus the family's exhaustive
	// conforming small heaps, every root, every int-parameter combination.
	runs, execErr := f.oracleRuns(prog, sp, g)
	if execErr != nil {
		f.recordDivergence(fam, sp, src, QueryLine{}, g, root, KindExecError, "",
			execErr.Error())
		return nil
	}

	for i, q := range kept {
		claimsNo := verdicts[i] == "no" || serveVerdicts[i] == "no"
		if !claimsNo {
			continue
		}
		for _, r := range runs {
			if hit, detail := lineConflict(r.Trace, q); hit {
				d := fmt.Sprintf("verdict No for %q, but on a conforming heap (%s, root %d, ints %v): %s",
					q.Text, r.Desc, r.Root, r.Ints, detail)
				f.recordDivergence(fam, sp, src, q, g, root, KindSoundness, "no", d)
				f.report.SoundnessViolations++
				break
			}
		}
	}
	return nil
}

// oracleRuns executes the program over the concrete generated heap and the
// family's enumerated conforming heaps.
func (f *Farm) oracleRuns(prog *lang.Program, sp *progSpec, g *heap.Graph) ([]oracleRun, error) {
	runs, err := oracleSweepAll(prog, sp.fam, sp.nInts, g)
	f.report.OracleRuns += len(runs)
	return runs, err
}

// oracleSweepAll is the oracle run set for one program: the concrete
// instance (when non-nil) plus the family's exhaustive conforming small
// heaps, from every root, under every int-parameter combination.
func oracleSweepAll(prog *lang.Program, fam *Family, nInts int, g *heap.Graph) ([]oracleRun, error) {
	var (
		runs []oracleRun
		err  error
	)
	if g != nil {
		runs, err = sweepHeap(prog, "scenario", g, allRoots(g), nInts, "concrete", runs)
		if err != nil {
			return runs, err
		}
	}
	for _, eg := range fam.ConformingHeaps() {
		runs, err = sweepHeap(prog, "scenario", eg, allRoots(eg), nInts, "enum", runs)
		if err != nil {
			return runs, err
		}
	}
	return runs, nil
}

// recordDivergence minimizes (when configured) and records one divergence.
func (f *Farm) recordDivergence(fam *Family, sp *progSpec, src string, q QueryLine, g *heap.Graph, root heap.Vertex, kind, verdict, detail string) {
	// Serve mismatches are not minimized: reproduction would hammer the
	// live endpoint once per shrink attempt.
	if f.cfg.Minimize && kind != KindServeMismatch {
		if msp, ok := f.minimizeSpec(fam, sp, q, g, kind); ok {
			sp = msp
			src = msp.Render()
		}
	}
	d := &Divergence{
		Version: 1,
		Kind:    kind,
		Family:  fam.Name,
		Program: src,
		Fn:      "scenario",
		NInts:   sp.nInts,
		Query:   q,
		Verdict: verdict,
		Detail:  detail,
		Heap:    snapshotHeap(g, root),
	}
	f.divs = append(f.divs, d)
	f.report.Divergences++
	f.report.DivergencesByKind[kind]++
	f.logf("DIVERGENCE [%s] family=%s: %s", kind, fam.Name, detail)
}
