package lint

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/automata"
	"repro/internal/lang"
	"repro/internal/pathexpr"
	"repro/internal/telemetry"
)

// incrSrc is a unit with an interprocedural chain (top calls mid calls
// leaf), an unrelated function, and both a provable loop and a Maybe loop —
// the Maybe matters because its diagnostic quotes proof-search statistics,
// the part of the output most sensitive to cross-run cache reuse.
const incrSrc = `
struct Cell {
	struct Cell *next;
	int v;
	axioms {
		A1: forall p, p.next+ <> p.eps;
	}
};

struct Ring {
	struct Ring *next;
	int v;
};

void leaf(struct Cell *c) {
	c->v = 1;
}

void mid(struct Cell *c) {
	leaf(c);
}

void top(struct Cell *l) {
	struct Cell *p;
	p = l;
	while (p != NULL) {
		p->v = 2;
		p = p->next;
	}
	mid(l);
}

void other(struct Ring *s, int k) {
	struct Ring *p;
	int i;
	p = s;
	i = 0;
	while (i < k) {
		p->v = i;
		p = p->next;
		i = i + 1;
	}
}
`

func parse(t *testing.T, src string) *lang.Program {
	t.Helper()
	prog, err := lang.Parse(src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	return prog
}

func TestFingerprintsStableUnderWhitespace(t *testing.T) {
	a := fingerprints(parse(t, incrSrc))
	b := fingerprints(parse(t, "\n\n"+strings.ReplaceAll(incrSrc, "\n\t", "\n\n\t")))
	if !reflect.DeepEqual(a.funcs, b.funcs) || !reflect.DeepEqual(a.structs, b.structs) {
		t.Errorf("whitespace shifted fingerprints:\n%v\nvs\n%v", a.funcs, b.funcs)
	}
}

func TestFingerprintsDirtyTransitiveCallers(t *testing.T) {
	a := fingerprints(parse(t, incrSrc))
	b := fingerprints(parse(t, strings.Replace(incrSrc, "c->v = 1;", "c->v = 9;", 1)))

	// Editing leaf dirties leaf, mid (direct caller), and top (transitive
	// caller) — but not other.
	for _, fn := range []string{"leaf", "mid", "top"} {
		if a.funcs[fn] == b.funcs[fn] {
			t.Errorf("%s fingerprint unchanged after a callee edit", fn)
		}
	}
	if a.funcs["other"] != b.funcs["other"] {
		t.Errorf("other dirtied by an edit in an unrelated call chain")
	}
	if !reflect.DeepEqual(a.structs, b.structs) {
		t.Errorf("struct fingerprints dirtied by a function-body edit")
	}
}

func TestFingerprintsStructEditDirtiesEverything(t *testing.T) {
	a := fingerprints(parse(t, incrSrc))
	b := fingerprints(parse(t, strings.Replace(incrSrc, "p.next+ <> p.eps", "p.next.next* <> p.eps", 1)))
	for fn := range a.funcs {
		if a.funcs[fn] == b.funcs[fn] {
			t.Errorf("%s fingerprint unchanged after an axiom edit", fn)
		}
	}
	if a.structs["Cell"] == b.structs["Cell"] {
		t.Errorf("Cell fingerprint unchanged after an axiom edit")
	}
}

// TestIncrementalFirstPassMatchesPlainRun: a cold incremental run must be
// indistinguishable from a plain driver run.
func TestIncrementalFirstPassMatchesPlainRun(t *testing.T) {
	prog := parse(t, incrSrc)
	plain, err := NewDriver(nil).Run("u.c", prog)
	if err != nil {
		t.Fatal(err)
	}
	inc := NewIncremental(NewDriver(nil))
	got, stats, err := inc.Run("u.c", parse(t, incrSrc))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, plain) {
		t.Errorf("cold incremental run differs from plain run:\n%v\nvs\n%v", got, plain)
	}
	if stats.Reused != 0 {
		t.Errorf("cold run reused %d declarations", stats.Reused)
	}
}

// TestIncrementalEditCycle drives a multi-edit session: after each edit the
// incremental result must be byte-identical to a cold run over the same
// source, and only the fingerprint-dirty subset may be re-analyzed.
func TestIncrementalEditCycle(t *testing.T) {
	edits := []struct {
		name        string
		src         string
		maxAnalyzed int // upper bound on re-analyzed declarations
	}{
		{"noop", incrSrc, 0},
		{"whitespace", "\n\n" + incrSrc, 0},
		{"leaf-edit", strings.Replace(incrSrc, "c->v = 1;", "c->v = 3;", 1), 3}, // leaf+mid+top
		{"revert", incrSrc, 3}, // leaf chain back
		{"other-edit", strings.Replace(incrSrc, "p->v = i;", "p->v = k;", 1), 1},                          // other only
		{"struct-edit", strings.Replace(incrSrc, "int v;\n\taxioms", "int v;\n\tint w;\n\taxioms", 1), 6}, // everything
	}

	inc := NewIncremental(NewDriver(nil))
	if _, _, err := inc.Run("u.c", parse(t, incrSrc)); err != nil {
		t.Fatal(err)
	}
	for _, e := range edits {
		got, stats, err := inc.Run("u.c", parse(t, e.src))
		if err != nil {
			t.Fatalf("%s: %v", e.name, err)
		}
		cold, err := NewDriver(nil).Run("u.c", parse(t, e.src))
		if err != nil {
			t.Fatalf("%s: %v", e.name, err)
		}
		if !reflect.DeepEqual(got, cold) {
			t.Errorf("%s: incremental result diverges from cold run:\ngot  %v\nwant %v", e.name, got, cold)
		}
		if stats.Analyzed > e.maxAnalyzed {
			t.Errorf("%s: re-analyzed %d declarations, want at most %d", e.name, stats.Analyzed, e.maxAnalyzed)
		}
	}
}

// TestIncrementalReusesCachesAcrossRuns: with a preload artifact, the
// first incremental run preseeds one DFA cache and builds one engine over
// it; a re-run after an edit borrows both — no second preseed, and the
// DFAs run 1 compiled answer run 2 as hits.
func TestIncrementalReusesCachesAcrossRuns(t *testing.T) {
	seed := automata.NewSharedCache(0, 0, 0)
	if _, err := seed.DFA(pathexpr.Intern(pathexpr.MustParse("next+")), automata.NewAlphabet("next")); err != nil {
		t.Fatal(err)
	}
	tel := telemetry.New(telemetry.NewRegistry(), nil)
	inc := NewIncremental(NewDriver(tel).SetPreload(seed.Snapshot()))
	// DFA and decision hits, all on the one cache the runs share.
	hits := func() int64 {
		c := tel.Metrics().Snapshot().Counters
		return c["automata.shared_hits"] + c["automata.shared_decision_hits"]
	}

	if _, _, err := inc.Run("u.c", parse(t, incrSrc)); err != nil {
		t.Fatal(err)
	}
	dfas, eng := inc.Caches.DFACache, inc.Caches.Engine
	if dfas == nil || eng == nil {
		t.Fatalf("run 1 left DFA cache %p and engine %p; want both built", dfas, eng)
	}
	if eng.DFACache() != dfas {
		t.Fatal("run 1's engine does not borrow the preseeded DFA cache")
	}
	before, hits1 := dfas.Stats(), hits()
	if before.Compiles == 0 {
		t.Fatal("run 1 compiled no DFA; the reuse check would be vacuous")
	}

	edited := strings.Replace(incrSrc, "c->v = 1;", "c->v = 3;", 1) // dirties leaf, mid, top
	got, stats, err := inc.Run("u.c", parse(t, edited))
	if err != nil {
		t.Fatal(err)
	}
	if stats.Analyzed == 0 {
		t.Fatal("the edit re-analyzed nothing")
	}
	if inc.Caches.DFACache != dfas {
		t.Error("run 2 replaced the DFA cache: the artifact was preseeded again")
	}
	if inc.Caches.Engine != eng {
		t.Error("run 2 built a second engine")
	}
	after := dfas.Stats()
	if after.Compiles != before.Compiles {
		t.Errorf("run 2 compiled %d DFAs that run 1 had already compiled", after.Compiles-before.Compiles)
	}
	if hits() <= hits1 {
		t.Error("run 2 took no hits on the DFAs run 1 compiled")
	}

	cold, err := NewDriver(nil).Run("u.c", parse(t, edited))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, cold) {
		t.Errorf("re-run over reused caches diverges from a cold run:\ngot  %v\nwant %v", got, cold)
	}
}

// TestIncrementalRebasesReusedDiagnostics: a whitespace edit above a
// function shifts its reused diagnostics (and their related notes) without
// re-analysis.
func TestIncrementalRebasesReusedDiagnostics(t *testing.T) {
	src := `
struct N {
	struct N *nx;
	int d;
};

void splice(struct N *a) {
	struct N *t;
	t = a->nx;
	if (t != NULL) {
		a->nx = NULL;
		t->d = 1;
	}
}
`
	inc := NewIncremental(NewDriver(nil))
	first, _, err := inc.Run("u.c", parse(t, src))
	if err != nil {
		t.Fatal(err)
	}
	if len(first) == 0 {
		t.Fatal("seed program produced no diagnostics")
	}
	shifted, stats, err := inc.Run("u.c", parse(t, "\n\n\n"+src))
	if err != nil {
		t.Fatal(err)
	}
	if stats.Analyzed != 0 || stats.Reused == 0 {
		t.Fatalf("whitespace edit re-analyzed %d, reused %d", stats.Analyzed, stats.Reused)
	}
	if len(shifted) != len(first) {
		t.Fatalf("diagnostic count changed: %d vs %d", len(shifted), len(first))
	}
	for i := range first {
		if shifted[i].Pos.Line != first[i].Pos.Line+3 {
			t.Errorf("diag %d line %d, want %d", i, shifted[i].Pos.Line, first[i].Pos.Line+3)
		}
		for j := range first[i].Related {
			if shifted[i].Related[j].Pos.Line != first[i].Related[j].Pos.Line+3 {
				t.Errorf("diag %d related %d not rebased", i, j)
			}
		}
	}
}

// TestStoreRoundTrip: persisting the store and reloading it preserves the
// no-reanalysis property across driver instances (the -incr-cache flow).
func TestStoreRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.json")
	inc := NewIncremental(NewDriver(nil))
	first, _, err := inc.Run("u.c", parse(t, incrSrc))
	if err != nil {
		t.Fatal(err)
	}
	if err := inc.Store.Save(path); err != nil {
		t.Fatal(err)
	}

	loaded, err := LoadStore(path)
	if err != nil {
		t.Fatal(err)
	}
	inc2 := &IncrementalDriver{Driver: NewDriver(nil), Store: loaded, Caches: NewCaches()}
	again, stats, err := inc2.Run("u.c", parse(t, incrSrc))
	if err != nil {
		t.Fatal(err)
	}
	if stats.Analyzed != 0 {
		t.Errorf("reloaded store still re-analyzed %d declarations", stats.Analyzed)
	}
	if !reflect.DeepEqual(again, first) {
		t.Errorf("diagnostics diverge after store round-trip:\n%v\nvs\n%v", again, first)
	}

	// A corrupt or foreign-schema store degrades to a full re-analysis,
	// never an error.
	fresh, err := LoadStore(filepath.Join(t.TempDir(), "missing.json"))
	if err != nil || len(fresh.Files) != 0 {
		t.Errorf("missing store: %v, %v", fresh, err)
	}
}

// TestConversionRateGate is the precision-regression gate: the fraction of
// parallelization verdicts the guard layer upgrades from Maybe to definite
// on the seeded corpus must not drop below the committed baseline.
func TestConversionRateGate(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("..", "..", "testdata", "lint", "*.c"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no corpus: %v", err)
	}
	upgraded, maybes := corpusConversion(t, files)
	if upgraded == 0 {
		t.Fatalf("no guard-upgraded verdicts on the corpus")
	}
	rate := float64(upgraded) / float64(upgraded+maybes)
	// Baseline as of the corpus seeded with guarded_doall.c and
	// guarded_stale.c: 2 upgraded diagnostics against 2 Maybe loops.
	const baseline = 0.50
	if rate < baseline {
		t.Errorf("Maybe-to-definite conversion rate %.2f (%d upgraded, %d maybe) below baseline %.2f",
			rate, upgraded, maybes, baseline)
	}
}

// corpusConversion lints the files and counts guard-upgraded diagnostics
// against remaining unproved ("may carry"/stale) warnings.
func corpusConversion(t *testing.T, files []string) (upgraded, maybes int) {
	t.Helper()
	d := NewDriver(nil)
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		prog, err := lang.Parse(string(src))
		if err != nil {
			continue
		}
		diags, err := d.Run(f, prog)
		if err != nil {
			t.Fatal(err)
		}
		for _, diag := range diags {
			switch {
			case diag.UpgradedFromMaybe:
				upgraded++
			case strings.Contains(diag.Message, "may carry a dependence"),
				strings.Contains(diag.Message, "after destructive update"):
				maybes++
			}
		}
	}
	return upgraded, maybes
}
