package prover

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/automata"
	"repro/internal/axiom"
	"repro/internal/pathexpr"
	"repro/internal/telemetry"
)

// TestStatsRichFields: every query reports DFA compiles, peak depth, and
// budget consumption alongside the original counters.
func TestStatsRichFields(t *testing.T) {
	p := New(axiom.LeafLinkedBinaryTree(), Options{})
	proof := p.Prove(SameSrc, pathexpr.MustParse("L.L.N"), pathexpr.MustParse("L.R.N"))
	if proof.Result != Proved {
		t.Fatalf("result = %v", proof.Result)
	}
	st := proof.Stats
	if st.StepsUsed != st.ProveCalls || st.StepsUsed == 0 {
		t.Errorf("StepsUsed = %d, ProveCalls = %d", st.StepsUsed, st.ProveCalls)
	}
	if st.DFACompiles == 0 {
		t.Error("DFACompiles = 0 on a fresh prover")
	}
	if st.PeakDepth == 0 {
		t.Error("PeakDepth = 0 for a recursive proof")
	}
	// A repeat of the same query finds every automaton in the DFA cache: no
	// new compilations.
	again := p.Prove(SameSrc, pathexpr.MustParse("L.L.N"), pathexpr.MustParse("L.R.N"))
	if again.Stats.DFACompiles != 0 {
		t.Errorf("second query compiled %d DFAs, want 0", again.Stats.DFACompiles)
	}
	// The rendering leaves the count out: it says which search sharing a
	// DFA cache compiled first, so it would make renderings depend on
	// scheduling.
	if strings.Contains(proof.Render(), "DFA compiles") {
		t.Error("Render shows the DFA compile count")
	}
}

// TestDFACompilesChargedToOwnSearch: a proof's DFACompiles counts the
// compiles its own search ran, not those other users of a shared cache ran
// meanwhile.  The interrupt hook stands in for a concurrent worker: every
// poll compiles an unrelated expression into the same cache.
func TestDFACompilesChargedToOwnSearch(t *testing.T) {
	x := pathexpr.MustParse("(L|R).(L|R).(L|R).N*")
	y := pathexpr.MustParse("(L|R).(L|R).(L|R).N+")
	alone := New(axiom.LeafLinkedBinaryTree(), Options{}).Prove(SameSrc, x, y)

	cache := automata.NewSharedCache(0, 1, 0)
	other := automata.NewAlphabet("hook")
	polls := 0
	interrupt := func() bool {
		polls++
		word := strings.TrimSuffix(strings.Repeat("hook.", polls), ".")
		if _, err := cache.DFA(pathexpr.Intern(pathexpr.MustParse(word)), other); err != nil {
			t.Fatalf("hook compile: %v", err)
		}
		return false
	}
	shared := New(axiom.LeafLinkedBinaryTree(), Options{DFACache: cache, Interrupt: interrupt}).Prove(SameSrc, x, y)
	if polls == 0 {
		t.Fatalf("interrupt hook never polled in %d goals; the test needs a longer search", shared.Stats.ProveCalls)
	}
	if shared.Result != alone.Result {
		t.Fatalf("result %v with the hook, %v without", shared.Result, alone.Result)
	}
	if shared.Stats.DFACompiles != alone.Stats.DFACompiles {
		t.Errorf("DFACompiles = %d with %d hook compiles in the cache, want the search's own %d",
			shared.Stats.DFACompiles, polls, alone.Stats.DFACompiles)
	}
	if total := cache.Stats().Compiles; total != alone.Stats.DFACompiles+polls {
		t.Errorf("cache compiled %d DFAs, want %d (search) + %d (hook)", total, alone.Stats.DFACompiles, polls)
	}
}

// TestDisableMinimize: the minimization ablation still proves Theorem T,
// and its cache keeps DFAs as subset construction built them — a known
// non-minimal one stays larger than in a minimizing prover's cache.
func TestDisableMinimize(t *testing.T) {
	raw := New(axiom.SparseMatrixCore(), Options{DisableMinimize: true})
	if pf := raw.Prove(SameSrc, pathexpr.MustParse("ncolE+"), pathexpr.MustParse("nrowE+.ncolE+")); pf.Result != Proved {
		t.Fatalf("Theorem T without minimization: %v", pf.Result)
	}
	minimized := New(axiom.SparseMatrixCore(), Options{})
	// Subset construction gives L.N and R.N separate, equivalent states
	// after the first letter.
	e := pathexpr.Intern(pathexpr.MustParse("L.N|R.N"))
	alpha := automata.NewAlphabet("L", "R", "N")
	dRaw, err := raw.dfas.DFA(e, alpha)
	if err != nil {
		t.Fatal(err)
	}
	dMin, err := minimized.dfas.DFA(e, alpha)
	if err != nil {
		t.Fatal(err)
	}
	if dRaw.NumStates() <= dMin.NumStates() {
		t.Errorf("DisableMinimize cache holds %d states, minimizing cache %d; want more without minimization",
			dRaw.NumStates(), dMin.NumStates())
	}
	if !dRaw.Equivalent(dMin) {
		t.Error("unminimized and minimized DFAs accept different languages")
	}
}

// TestProverTelemetry: metrics aggregate across queries and the JSONL trace
// carries one prover.prove span per proof, with every rule event parented
// under its proof's span.
func TestProverTelemetry(t *testing.T) {
	var buf bytes.Buffer
	reg := telemetry.NewRegistry()
	tel := telemetry.New(reg, telemetry.NewStreamingTrace(telemetry.NewTraceWriter(&buf)))
	p := New(axiom.LeafLinkedBinaryTree(), Options{Telemetry: tel})

	if p.Prove(SameSrc, pathexpr.MustParse("L.L.N"), pathexpr.MustParse("L.R.N")).Result != Proved {
		t.Fatal("section 3.3 theorem not proved")
	}
	// §5's Theorem T exercises the Kleene induction machinery.
	p2 := New(axiom.SparseMatrixCore(), Options{Telemetry: tel})
	if p2.Prove(SameSrc, pathexpr.MustParse("ncolE+"), pathexpr.MustParse("nrowE+.ncolE+")).Result != Proved {
		t.Fatal("Theorem T not proved")
	}

	snap := reg.Snapshot()
	if snap.Counters["prover.queries"] != 2 {
		t.Errorf("prover.queries = %d, want 2", snap.Counters["prover.queries"])
	}
	for _, c := range []string{"prover.goals", "prover.direct_checks", "prover.filtered_checks", "automata.shared_compiles", "automata.shared_lookups"} {
		if snap.Counters[c] == 0 {
			t.Errorf("counter %s = 0", c)
		}
	}
	if snap.Maxes["prover.peak_depth"] == 0 {
		t.Error("prover.peak_depth max = 0")
	}
	if snap.Hists["prover.query_ns"].Count != 2 {
		t.Errorf("prover.query_ns count = %d, want 2", snap.Hists["prover.query_ns"].Count)
	}

	events := map[string]int{}
	proofs := map[string]bool{}
	var ruleParents []string
	for _, ln := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var m map[string]any
		if err := json.Unmarshal([]byte(ln), &m); err != nil {
			t.Fatalf("trace line not JSON: %v\n%s", err, ln)
		}
		ev := m["ev"].(string)
		events[ev]++
		switch {
		case ev == "prover.prove":
			for _, k := range []string{"span_id", "dur_us", "theorem", "result", "steps", "budget", "peak_depth", "dfa_compiles"} {
				if _, ok := m[k]; !ok {
					t.Errorf("prover.prove span missing %q: %v", k, m)
				}
			}
			if _, ok := m["parent_id"]; ok {
				t.Errorf("standalone prover.prove span has a parent: %v", m)
			}
			proofs[m["span_id"].(string)] = true
		case strings.HasPrefix(ev, "prover."):
			parent, _ := m["parent_id"].(string)
			ruleParents = append(ruleParents, parent)
		}
	}
	if events["prover.prove"] != 2 {
		t.Errorf("prover.prove spans = %d, want 2", events["prover.prove"])
	}
	if events["prover.query"] != 0 {
		t.Errorf("prover.query lines = %d, want none (one span per proof)", events["prover.query"])
	}
	for _, parent := range ruleParents {
		if !proofs[parent] {
			t.Errorf("rule event parented under %q, not a prover.prove span", parent)
		}
	}
	if events["prover.suffix_split"] == 0 {
		t.Error("no prover.suffix_split events")
	}
	if events["prover.plus_induction"] == 0 {
		t.Error("no prover.plus_induction events")
	}
	if events["automata.compile"] == 0 {
		t.Error("no automata.compile events")
	}
}
