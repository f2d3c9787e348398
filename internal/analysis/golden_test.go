package analysis

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/automata"
	"repro/internal/guard"
	"repro/internal/lang"
	"repro/internal/pathexpr"
	"repro/internal/telemetry"
)

var update = flag.Bool("update", false, "rewrite testdata/apm.golden")

// goldenCorpus is the program set the APM golden covers: the paper's
// examples, the determinism walk and every lint fixture.
func goldenCorpus(t testing.TB) []string {
	t.Helper()
	var files []string
	for _, pat := range []string{"../../testdata/*.c", "../../testdata/determinism/*.c", "../../testdata/lint/*.c"} {
		m, err := filepath.Glob(pat)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, m...)
	}
	sort.Strings(files)
	if len(files) == 0 {
		t.Fatal("empty golden corpus")
	}
	return files
}

// goldenConfigs are the option sets that change what the walk records
// (InferTypeAxioms and AssumeLoopInvariants only touch axioms and queries).
var goldenConfigs = []struct {
	name string
	opts Options
}{
	{"default", Options{}},
	{"strict-calls", Options{CallsModifyStructure: true}},
}

// renderResult writes everything the walk records for one function in a
// form independent of map order and of process-global interning order.
func renderResult(b *strings.Builder, r *Result) {
	for _, l := range r.Labels() {
		fmt.Fprintf(b, "-- APM %s\n%s", l, r.APM(l).String())
	}
	for i, a := range r.Accesses {
		rw := "read"
		if a.IsWrite {
			rw = "write"
		}
		fmt.Fprintf(b, "-- access %d label=%q stmt=%d %s->%s %s type=%s epoch=%d pos=%d:%d\n",
			i, a.Label, a.Stmt, a.Var, a.Field, rw, a.Type, a.ModEpoch, a.Pos.Line, a.Pos.Col)
		writePathMap(b, "path", a.Paths)
		writePathMap(b, "delta", a.IterDeltas)
		if len(a.LoopModFields) > 0 {
			fmt.Fprintf(b, "   loopmod %s\n", strings.Join(a.LoopModFields, ","))
		}
		if len(a.Guards) > 0 {
			fmt.Fprintf(b, "   guards %s\n", renderGuards(a.Guards))
		}
		if len(a.InvGuards) > 0 {
			fmt.Fprintf(b, "   invguards %s\n", renderGuards(a.InvGuards))
		}
	}
	for _, m := range r.Mods {
		fmt.Fprintf(b, "-- mod epoch=%d field=%s label=%q pos=%d:%d\n", m.Epoch, m.Field, m.Label, m.Pos.Line, m.Pos.Col)
	}
}

func writePathMap(b *strings.Builder, kind string, ps HandlePaths) {
	for _, p := range ps {
		fmt.Fprintf(b, "   %s %s = %s\n", kind, p.Handle, p.Path)
	}
}

// renderGuards renders a guard set sorted by text (predicate IDs are
// process-global, so Set order is not stable across test orders).
func renderGuards(s guard.Set) string {
	parts := make([]string, len(s))
	for i, r := range s {
		parts[i] = r.String()
		if f := r.P.Eq(); f != nil {
			parts[i] += fmt.Sprintf("[%s=%s %s=%s @%s]", f.X, f.XPath, f.Y, f.YPath, f.Handle)
		}
	}
	sort.Strings(parts)
	return strings.Join(parts, " && ")
}

func renderCorpus(t testing.TB) string {
	var b strings.Builder
	for _, file := range goldenCorpus(t) {
		src, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		prog, err := lang.Parse(string(src))
		if err != nil {
			fmt.Fprintf(&b, "== %s: parse error: %v\n", filepath.ToSlash(file), err)
			continue
		}
		for _, fn := range prog.Funcs {
			for _, cfg := range goldenConfigs {
				fmt.Fprintf(&b, "== %s fn=%s opts=%s\n", strings.TrimPrefix(filepath.ToSlash(file), "../../"), fn.Name, cfg.name)
				r, err := Analyze(prog, fn.Name, cfg.opts)
				if err != nil {
					fmt.Fprintf(&b, "error: %v\n", err)
					continue
				}
				renderResult(&b, r)
			}
		}
	}
	return b.String()
}

// TestAPMGolden pins every labeled APM and every recorded access (paths,
// iteration deltas, loop-modified fields, modification epochs, guards) over
// the example and lint corpus.  Regenerate with: go test ./internal/analysis
// -run TestAPMGolden -update — only when the analysis is meant to change.
func TestAPMGolden(t *testing.T) {
	got := renderCorpus(t)
	const path = "testdata/apm.golden"
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (create with -update)", err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("APM golden differs at line %d:\n got: %s\nwant: %s", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("APM golden differs in length: got %d lines, want %d", len(gl), len(wl))
	}
}

// TestAnalyzeSharedCacheMatchesPrivate runs the golden corpus from 8
// goroutines on one borrowed DFA cache — unbounded, and capped so small
// that entries are evicted mid-run — and requires every result to equal
// the private-cache one: the widening inclusion checks are pure functions
// of their operands, so a borrowed cache may only change their cost.
func TestAnalyzeSharedCacheMatchesPrivate(t *testing.T) {
	type job struct {
		prog *lang.Program
		fn   string
		opts Options
		want string
	}
	var jobs []job
	for _, file := range goldenCorpus(t) {
		src, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		prog, err := lang.Parse(string(src))
		if err != nil {
			continue
		}
		for _, fn := range prog.Funcs {
			for _, cfg := range goldenConfigs {
				r, err := Analyze(prog, fn.Name, cfg.opts)
				if err != nil {
					continue
				}
				var b strings.Builder
				renderResult(&b, r)
				jobs = append(jobs, job{prog, fn.Name, cfg.opts, b.String()})
			}
		}
	}
	for _, tc := range []struct {
		name  string
		cache *automata.SharedCache
	}{
		{"unbounded", automata.NewSharedCache(0, 0)},
		{"evicting", automata.NewSharedCache(2, 1)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			reg := telemetry.NewRegistry()
			tc.cache.SetTelemetry(telemetry.New(reg, nil))
			count := func(name string) int64 { return reg.Counter(name).Value() }
			const workers = 8
			errs := make(chan string, workers)
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := range jobs {
						j := jobs[(i+w*len(jobs)/workers)%len(jobs)]
						opts := j.opts
						opts.DFACache = tc.cache
						r, err := Analyze(j.prog, j.fn, opts)
						if err != nil {
							errs <- err.Error()
							return
						}
						var b strings.Builder
						renderResult(&b, r)
						if got := b.String(); got != j.want {
							errs <- fmt.Sprintf("%s differs on the shared cache:\n%s\nprivate:\n%s", j.fn, got, j.want)
							return
						}
					}
				}(w)
			}
			wg.Wait()
			close(errs)
			for e := range errs {
				t.Fatal(e)
			}
			if count("automata.shared_lookups") == 0 {
				t.Fatal("no widening check reached the shared cache")
			}
			if tc.name == "evicting" && count("automata.shared_evictions") == 0 {
				t.Fatal("the capped cache evicted nothing")
			}
		})
	}
}

// TestWidenRuleAgreesWithDFA: on every post-loop inclusion check the golden
// corpus reaches, the structural rule (X·δ*·δ ⊆ X·δ*) answers only checks
// the DFA decision accepts too.  The corpus reaches checks of both kinds.
func TestWidenRuleAgreesWithDFA(t *testing.T) {
	cache := automata.NewSharedCache(1, 0)
	var ruled, decided int
	testIncludesHook = func(sub, sup *pathexpr.Node) {
		if !closesStar(sub, sup) {
			decided++
			return
		}
		ruled++
		ok, err := cache.Includes(sub, sup, automata.AlphabetOf(sub.Expr(), sup.Expr()))
		if err != nil || !ok {
			t.Errorf("the rule answers %s ⊆ %s, the DFA decision says %v (%v)", sub, sup, ok, err)
		}
	}
	defer func() { testIncludesHook = nil }()
	for _, file := range goldenCorpus(t) {
		src, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		prog, err := lang.Parse(string(src))
		if err != nil {
			continue
		}
		for _, fn := range prog.Funcs {
			for _, cfg := range goldenConfigs {
				Analyze(prog, fn.Name, cfg.opts)
			}
		}
	}
	if ruled == 0 || decided == 0 {
		t.Fatalf("%d checks answered by the rule, %d left to the DFA cache; want both kinds", ruled, decided)
	}
	t.Logf("%d checks answered by the rule, %d left to the DFA cache", ruled, decided)
}
