package scenario

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"math/rand"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"testing"
	"time"

	"repro/internal/heap/oracle"
	"repro/internal/lang"
	"repro/internal/route"
	"repro/internal/serve"
	"repro/internal/telemetry"
)

var update = flag.Bool("update", false, "rewrite the pinned smoke report under testdata/fuzz")

// smokeReportGolden pins TestFarmSmoke's report.
const smokeReportGolden = "../../testdata/fuzz/smoke_report.json"

// pinnedReport renders a farm report for comparison with the golden: its
// JSON without the two wall-clock fields.
func pinnedReport(t *testing.T, rep *Report) []byte {
	t.Helper()
	blob, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var fields map[string]any
	if err := json.Unmarshal(blob, &fields); err != nil {
		t.Fatal(err)
	}
	delete(fields, "elapsed_ms")
	delete(fields, "queries_per_sec")
	blob, err = json.MarshalIndent(fields, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return append(blob, '\n')
}

// The fixed-seed smoke farm: every family, a few dozen programs, zero
// divergences, and a report equal to the committed one but for its
// timings, so a change to the generator, the analysis, the prover or the
// oracle that moves any count shows here.  `make fuzzfarm-smoke` runs it.
// Regenerate after an intentional change with:
// go test ./internal/scenario -run 'TestFarmSmoke$' -update
func TestFarmSmoke(t *testing.T) {
	f, err := NewFarm(Config{Seed: 1, Programs: 50})
	if err != nil {
		t.Fatal(err)
	}
	rep, divs, err := f.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range divs {
		t.Errorf("divergence [%s] %s: %s\nprogram:\n%s", d.Kind, d.Family, d.Detail, d.Program)
	}
	if rep.Programs != 50 {
		t.Errorf("checked %d programs, want 50", rep.Programs)
	}
	if rep.Queries == 0 || rep.Verdicts["no"] == 0 {
		t.Errorf("farm proved nothing: %+v", rep)
	}
	if rep.OracleRuns == 0 {
		t.Errorf("oracle never ran: %+v", rep)
	}
	for _, fam := range Families() {
		if rep.FamilyPrograms[fam.Name] == 0 {
			t.Errorf("family %s never exercised", fam.Name)
		}
	}
	got := pinnedReport(t, rep)
	if *update {
		if err := os.WriteFile(smokeReportGolden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(smokeReportGolden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("smoke report differs from %s:\n got: %s\nwant: %s", smokeReportGolden, got, want)
	}
}

// Teeth: with every verdict forced to No, the oracles must catch planted
// soundness violations, and the minimizer must shrink the programs.
func TestFarmDetectsPlantedUnsoundness(t *testing.T) {
	f, err := NewFarm(Config{Seed: 1, Programs: 20, ForceNo: true, Minimize: true})
	if err != nil {
		t.Fatal(err)
	}
	rep, divs, err := f.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.SoundnessViolations == 0 || len(divs) == 0 {
		t.Fatalf("forced-No farm found no violations: %+v", rep)
	}
	// The committed regression artifacts quote this detail format.
	detail := regexp.MustCompile(`^verdict No for "[^"]+", but on a conforming heap \((concrete|enum), root \d+, ints \[[01 ]*\]\): \S`)
	for _, d := range divs {
		if d.Kind == KindSoundness && !detail.MatchString(d.Detail) {
			t.Errorf("soundness detail out of format: %s", d.Detail)
		}
	}
	// Every divergence must replay against a fresh engine/oracle... except
	// that honest verdicts are not No, so a planted divergence's Replay
	// comes back clean — which is itself the property Replay guarantees
	// for regression artifacts of fixed bugs.
	for _, d := range divs[:min(3, len(divs))] {
		redo, err := Replay(d)
		if err != nil {
			t.Fatalf("replay failed: %v\nprogram:\n%s", err, d.Program)
		}
		if redo != nil {
			t.Errorf("planted divergence replays as a real one: %s", redo.Detail)
		}
	}
}

// Minimized divergences must stay diverging and must not grow.
func TestMinimizerShrinks(t *testing.T) {
	big, err := NewFarm(Config{Seed: 3, Programs: 10, ForceNo: true})
	if err != nil {
		t.Fatal(err)
	}
	_, rawDivs, err := big.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	small, err := NewFarm(Config{Seed: 3, Programs: 10, ForceNo: true, Minimize: true})
	if err != nil {
		t.Fatal(err)
	}
	_, minDivs, err := small.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(rawDivs) == 0 || len(rawDivs) != len(minDivs) {
		t.Fatalf("raw %d vs minimized %d divergences", len(rawDivs), len(minDivs))
	}
	for i := range minDivs {
		if len(minDivs[i].Program) > len(rawDivs[i].Program) {
			t.Errorf("divergence %d grew under minimization: %d -> %d bytes",
				i, len(rawDivs[i].Program), len(minDivs[i].Program))
		}
	}
}

// Serve parity: the same seed run against an in-process aptserved instance
// must agree with the local engine — no mismatches, and the farm's
// reported query count doubles as a load test of /v1/batch.
func TestFarmServeParity(t *testing.T) {
	srv := httptest.NewServer(serve.New(serve.Config{}))
	defer srv.Close()

	f, err := NewFarm(Config{Seed: 2, Programs: 25, ServeURL: srv.URL})
	if err != nil {
		t.Fatal(err)
	}
	rep, divs, err := f.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range divs {
		t.Errorf("divergence [%s]: %s", d.Kind, d.Detail)
	}
	if rep.DivergencesByKind[KindServeMismatch] != 0 {
		t.Errorf("serve mismatches: %+v", rep)
	}
	// The in-process daemon answers well inside its 2s default budget, so
	// any softening here means the client misread the wire verdicts (e.g.
	// the "No"-vs-"no" casing), not a genuine timeout.
	if rep.Softenings != 0 {
		t.Errorf("%d serve verdicts softened to maybe: %+v", rep.Softenings, rep)
	}
}

// Router parity: the farm's -serve cross-check is equally valid against a
// consistent-hash router front-ending several backends — the routing tier
// must be invisible to verdicts.  The farm's many distinct programs give
// distinct fingerprints, so the requests genuinely spread across the ring.
func TestFarmServeParityThroughRouter(t *testing.T) {
	b1 := httptest.NewServer(serve.New(serve.Config{}))
	defer b1.Close()
	b2 := httptest.NewServer(serve.New(serve.Config{}))
	defer b2.Close()
	tel := telemetry.New(telemetry.NewRegistry(), nil)
	rt := route.New(route.Config{Backends: []string{b1.URL, b2.URL}, Telemetry: tel})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		rt.Drain(ctx) //nolint:errcheck
	}()
	front := httptest.NewServer(rt)
	defer front.Close()

	f, err := NewFarm(Config{Seed: 2, Programs: 25, ServeURL: front.URL})
	if err != nil {
		t.Fatal(err)
	}
	rep, divs, err := f.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range divs {
		t.Errorf("divergence [%s]: %s", d.Kind, d.Detail)
	}
	if rep.DivergencesByKind[KindServeMismatch] != 0 || rep.Softenings != 0 {
		t.Errorf("router cross-check degraded verdicts: %+v", rep)
	}
	c := tel.Metrics().Snapshot().Counters
	accepted := c["route.requests"]
	if accepted == 0 || accepted != c["route.completed"] {
		t.Errorf("router accepted=%d completed=%d; farm traffic did not flow through it", accepted, c["route.completed"])
	}
	var forwarded int64
	for _, b := range []string{b1.URL, b2.URL} {
		forwarded += c[telemetry.Labeled("route.backend_forwarded", "backend", b)]
	}
	if forwarded < accepted {
		t.Errorf("backends forwarded %d < accepted %d", forwarded, accepted)
	}
}

// Artifacts round-trip through disk and replay.
func TestArtifactSaveLoadReplay(t *testing.T) {
	f, err := NewFarm(Config{Seed: 1, Programs: 20, ForceNo: true, Minimize: true})
	if err != nil {
		t.Fatal(err)
	}
	_, divs, err := f.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(divs) == 0 {
		t.Fatal("no divergences to round-trip")
	}
	dir := t.TempDir()
	path, err := SaveArtifact(dir, divs[0])
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadArtifact(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Program != divs[0].Program || loaded.Query != divs[0].Query {
		t.Fatal("artifact did not round-trip")
	}
	if redo, err := Replay(loaded); err != nil {
		t.Fatal(err)
	} else if redo != nil {
		t.Errorf("planted artifact replays as a live divergence: %s", redo.Detail)
	}

	files, err := ListArtifacts(dir)
	if err != nil || len(files) != 1 {
		t.Fatalf("ListArtifacts = %v, %v", files, err)
	}
	if files, err := ListArtifacts(filepath.Join(dir, "missing")); err != nil || files != nil {
		t.Fatalf("missing dir must be an empty corpus, got %v, %v", files, err)
	}
	if err := os.WriteFile(filepath.Join(dir, "junk.json"), []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadArtifact(filepath.Join(dir, "junk.json")); err == nil {
		t.Error("corrupt artifact loaded without error")
	}
}

// The oracle sweep must flag a program that violates the farm's null-guard
// discipline as an execution error (the farm reports it as an exec-error
// divergence rather than crashing or silently skipping the program).
func TestOracleSweepCatchesUnguardedDeref(t *testing.T) {
	fam := FamilyByName("unionfind")
	src := fam.StructSource() + `
void scenario(struct UFNode *h) {
	struct UFNode *t;
	t = h->parent;
	S0: t->v = 1;
}
`
	prog, err := lang.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sweepProgram(prog, fam, nil, func(string, oracle.Run) {}); err == nil {
		t.Fatal("unguarded dereference swept without error")
	}

	// Sanity check the other direction: a renderer-built (guarded) spec
	// runs the whole farm pipeline without any divergence.
	sp := &progSpec{
		fam:     fam,
		nInts:   1,
		nLocals: 1,
		stmts: []specStmt{
			{Kind: stSetup, Src: varRef{Kind: 'h'}, Field: "parent", Dst: 0, Cond: -1},
			{Kind: stWrite, Src: varRef{Kind: 't', Idx: 0}, Field: "v", Label: "S0", Cond: -1},
			{Kind: stRead, Src: varRef{Kind: 'h'}, Field: "v", Label: "S1", Cond: -1},
		},
	}
	f, err := NewFarm(Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	g, root := fam.Generate(rand.New(rand.NewSource(4)), 4)
	if err := f.checkProgram(context.Background(), fam, sp, g, root); err != nil {
		t.Fatal(err)
	}
	if f.report.Divergences != 0 {
		t.Fatalf("well-guarded spec diverged: %+v", f.report)
	}
}
