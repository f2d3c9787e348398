// Command perfbench is the repository's benchmark: it drives the APT query
// plane in process on seeded inputs, checks every verdict, and prints one
// JSON result line.
//
//	bash perfbench/run.sh --workload served-warm --seed 1 --seconds 10 --trace 0
//
// Workloads (a closed loop with one client; engines run one worker):
//
//   - compile-cold: mini-C source → parse → analysis → queries → a fresh
//     engine → verdicts, the one-shot compiler path, with every DFA compiled
//     and every proof searched cold.
//   - served-warm: program-mode /v1/batch requests through serve.Server over a
//     small working set, so the engine pool, DFA cache and proof memo stay hot
//     and parse, analysis and the wire dominate.
//   - raw-churn: raw-mode requests cycling through more axiom sets than the
//     engine pool keeps, so every request evicts an engine and builds a cold
//     one: the server path with its caches bypassed.
//
// With --trace 0 it reports the end-to-end metrics: the median and the mean
// wall-clock latency of an operation (the mean carries the cost of the heavy
// inputs, and is the inverse of the closed loop's throughput) and the CPU
// time of set-up.  Tail percentiles are left out: on a shared host they
// spread from run to run two to several times as far as the median does.
//
// With --trace 1 it times each layer from the outside instead — the
// benchmark calls each package of the stack itself, the way internal/serve
// composes them, and reads the stack's own counters (cache hits, DFA
// compiles, proof goals).
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sort"
	"syscall"
	"time"

	"repro/internal/analysis"
	"repro/internal/axiom"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/lang"
	"repro/internal/prover"
	"repro/internal/serve"
	"repro/internal/telemetry"
	"repro/internal/wire"
)

const (
	// maxEngines is the server's engine-pool capacity; raw-churn cycles
	// through more axiom sets than this.
	maxEngines = 8
	// setupReps is how many times set-up runs; setup_s is their median.
	setupReps = 5
	// rounds is how many equal rounds a run is cut into.
	rounds = 10
)

// serverConfig is the served workloads' server: one engine worker, the
// default admission limits, and an explicit engine-pool cap.
func serverConfig(tel *telemetry.Set) serve.Config {
	return serve.Config{Workers: 1, MaxEngines: maxEngines, Telemetry: tel}
}

// workload is one seeded input set and the path it takes through the stack.
type workload struct {
	served bool // through serve.Server; otherwise the library stack, cold per op
	inputs func(rng *rand.Rand) []wire.BatchRequest
}

var workloads = map[string]workload{
	// One-shot compiles of seeded kernels: front end, cold proof search and
	// DFA construction.
	"compile-cold": {
		inputs: func(rng *rand.Rand) []wire.BatchRequest {
			return programs(rng, 32)
		},
	},
	// Repeated program-mode requests over a warm engine pool: the caches hit,
	// so the front end and the wire dominate.
	"served-warm": {
		served: true,
		inputs: func(rng *rand.Rand) []wire.BatchRequest {
			return programs(rng, 16)
		},
	},
	// Raw-mode requests over more axiom sets than the pool keeps: every
	// request builds a cold engine, so the caches are bypassed.
	"raw-churn": {
		served: true,
		inputs: func(rng *rand.Rand) []wire.BatchRequest {
			var sets []*axiom.Set
			for _, f := range families() {
				sets = append(sets, f.windows()...)
			}
			rng.Shuffle(len(sets), func(i, j int) { sets[i], sets[j] = sets[j], sets[i] })
			// Passes over the sets in one order: a set comes back only after
			// every other set, so the LRU pool has always evicted it.
			var reqs []wire.BatchRequest
			for pass := 0; pass < 8; pass++ {
				for _, s := range sets {
					reqs = append(reqs, genRaw(rng, s))
				}
			}
			return reqs
		},
	},
}

// programs generates perFamily kernels per structure family plus the
// paper's own kernels, in a seeded order.
func programs(rng *rand.Rand, perFamily int) []wire.BatchRequest {
	var reqs []wire.BatchRequest
	for _, k := range paperKernels {
		reqs = append(reqs, k.req)
	}
	for _, f := range families() {
		for i := 0; i < perFamily; i++ {
			reqs = append(reqs, genProgram(rng, f))
		}
	}
	rng.Shuffle(len(reqs), func(i, j int) { reqs[i], reqs[j] = reqs[j], reqs[i] })
	return reqs
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: compile-cold, served-warm or raw-churn")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 10, "measured seconds")
	trace := fs.Int("trace", 0, "1 reports per-layer metrics instead of end-to-end ones")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload compile-cold|served-warm|raw-churn, --seconds > 0, --trace 0|1\n")
		return 2
	}
	res, err := measure(w, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stderr, "perfbench: %s seed %d: %d ops in %v rounds, GOMAXPROCS %d, %d CPUs, %s %s/%s\n",
		*name, *seed, res.Attempted, rounds, runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version(), runtime.GOOS, runtime.GOARCH)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// verdict is the part of a query result the benchmark checks.
type verdict struct{ S, T, Result, Kind string }

// reference answers a request with the sequential core.Tester — no engine
// pool, no shared DFA cache, no proof memo, no server — which the engine's
// verdicts must equal.
func reference(req wire.BatchRequest) ([]verdict, error) {
	var (
		ax      *axiom.Set
		queries []core.Query
		err     error
	)
	if len(req.Raw) > 0 {
		if ax, err = axiom.ParseSet(req.AxiomSetName, req.AxiomSet); err != nil {
			return nil, err
		}
		if queries, err = exec.BuildRawQueries(ax, req.Raw); err != nil {
			return nil, err
		}
	} else {
		prog, err := lang.Parse(req.Program)
		if err != nil {
			return nil, err
		}
		res, err := analysis.Analyze(prog, req.Fn, analysis.Options{InferTypeAxioms: true})
		if err != nil {
			return nil, err
		}
		if queries, err = expandLines(req.Queries, res); err != nil {
			return nil, err
		}
		ax = res.Axioms
	}
	tester := core.NewTester(ax, prover.Options{})
	out := make([]verdict, len(queries))
	for i, q := range queries {
		o := tester.DepTest(q)
		out[i] = verdict{q.S.String(), q.T.String(), o.Result.String(), o.Kind.String()}
	}
	sortVerdicts(out)
	return out, nil
}

// sortVerdicts puts verdicts in a canonical order.  The analysis expands a
// statement nested in two loops into one query per loop in map order, so
// the order of results within one query line is not stable from run to run;
// the set is.
func sortVerdicts(vs []verdict) {
	sort.Slice(vs, func(i, j int) bool {
		a, b := vs[i], vs[j]
		if a.S != b.S {
			return a.S < b.S
		}
		if a.T != b.T {
			return a.T < b.T
		}
		if a.Result != b.Result {
			return a.Result < b.Result
		}
		return a.Kind < b.Kind
	})
}

// matches reports whether a response carries exactly the wanted verdicts.
func matches(resp *wire.BatchResponse, want []verdict) bool {
	if len(resp.Results) != len(want) {
		return false
	}
	got := make([]verdict, len(resp.Results))
	for i, r := range resp.Results {
		got[i] = verdict{r.S, r.T, r.Result, r.Kind}
	}
	sortVerdicts(got)
	for i := range got {
		if got[i] != want[i] {
			return false
		}
	}
	return true
}

// input is one request with its encoded body and reference verdicts.
type input struct {
	req  wire.BatchRequest
	body []byte
	want []verdict
}

// prepare generates the workload's inputs and their reference verdicts.
// It also reports whether the reference gives the paper's stated verdicts
// on the paper's own kernels.
func prepare(w workload, seed int64) ([]input, bool, error) {
	reqs := w.inputs(rand.New(rand.NewSource(seed)))
	ins := make([]input, len(reqs))
	for i, req := range reqs {
		want, err := reference(req)
		if err != nil {
			return nil, false, fmt.Errorf("reference for input %d: %w", i, err)
		}
		body, err := json.Marshal(req)
		if err != nil {
			return nil, false, err
		}
		ins[i] = input{req: req, body: body, want: want}
	}
	paperOK := true
	for _, k := range paperKernels {
		want, err := reference(k.req)
		if err != nil {
			return nil, false, err
		}
		paperOK = paperOK && len(want) == len(k.want)
		for i := 0; paperOK && i < len(want); i++ {
			paperOK = want[i].Result == k.want[i]
		}
	}
	return ins, paperOK, nil
}

// system is the stack under test for one run: a served workload's server
// (with its outside-in mirror when tracing), or nothing for compile-cold,
// which builds a fresh stack per operation.
type system struct {
	srv    *serve.Server
	mirror *stack
	tel    *telemetry.Set
}

// op runs one operation and returns its response, or nil when it failed:
// for compile-cold a fresh stack answers the request; for the served
// workloads a client encodes the request, the server handles it, and the
// client decodes the response.
func (s *system) op(w workload, in *input, sp *spans) *wire.BatchResponse {
	if !w.served {
		resp, err := newStack(s.tel).answer(&in.req, sp)
		if err != nil {
			return nil
		}
		return resp
	}
	t := sp.start()
	body, err := json.Marshal(&in.req)
	sp.end(layClientEncode, t)
	if err != nil {
		return nil
	}
	t = sp.start()
	rec := httptest.NewRecorder()
	s.srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/batch", bytes.NewReader(body)))
	sp.end(layHandler, t)
	if rec.Code != http.StatusOK {
		return nil
	}
	t = sp.start()
	var resp wire.BatchResponse
	err = json.Unmarshal(rec.Body.Bytes(), &resp)
	sp.end(layClientDecode, t)
	if err != nil {
		return nil
	}
	return &resp
}

// mirrorOp answers the same request through the layer-by-layer mirror of
// the server, timing each layer.
func (s *system) mirrorOp(in *input, sp *spans) bool {
	body, err := s.mirror.serve(in.body, sp)
	if err != nil {
		return false
	}
	var resp wire.BatchResponse
	return json.Unmarshal(body, &resp) == nil && matches(&resp, in.want)
}

// setup builds the system and pushes one pass of the inputs through it, so
// engines, DFA caches and proof memos fill before timing.  It runs
// setupReps times on fresh systems and returns the last, the median CPU
// time of a set-up, and how many answers were missing or wrong.
func setup(w workload, ins []input, traced bool) (sys *system, cpuSeconds float64, wrong int) {
	var times []float64
	for rep := 0; rep < setupReps; rep++ {
		c0 := cpuTime()
		sys = &system{}
		if traced {
			sys.tel = telemetry.New(telemetry.NewRegistry(), nil)
		}
		if w.served {
			sys.srv = serve.New(serverConfig(sys.tel))
			if traced {
				sys.mirror = newStack(nil)
			}
		}
		for i := range ins {
			if resp := sys.op(w, &ins[i], nil); resp == nil || !matches(resp, ins[i].want) {
				wrong++
			}
			if sys.mirror != nil && !sys.mirrorOp(&ins[i], nil) {
				wrong++
			}
		}
		times = append(times, (cpuTime() - c0).Seconds())
	}
	return sys, median(times), wrong
}

func measure(w workload, seed int64, dur time.Duration, traced bool) (*result, error) {
	ins, paperOK, err := prepare(w, seed)
	if err != nil {
		return nil, err
	}
	sys, setupS, wrong := setup(w, ins, traced)
	var sp *spans
	if traced {
		sp = &spans{}
	}
	before := sys.tel.Metrics().Snapshot()
	runtime.GC()

	res := &result{Correct: paperOK && wrong == 0, Metrics: map[string]metric{}}
	var (
		lats    []time.Duration
		glue    []time.Duration
		service []time.Duration
	)
	// The run is cut into rounds and each end-to-end metric is the median
	// of its per-round values, so a stretch of interference from other
	// processes on the host moves a few rounds rather than the result.
	var p50s, means []float64
	roundEnd := func(from int) {
		p50s = append(p50s, ms(quantile(lats[from:], 0.50)))
		means = append(means, ms(mean(lats[from:])))
	}
	// Inputs go round in generated order: raw-churn relies on it to bring
	// each axiom set back only after the pool has evicted it.
	start := time.Now()
	roundStart, roundFrom := start, 0
	for i := 0; time.Since(start) < dur; i++ {
		if now := time.Now(); now.Sub(roundStart) >= dur/rounds {
			roundEnd(roundFrom)
			roundStart, roundFrom = now, len(lats)
		}
		in := &ins[i%len(ins)]
		t0 := time.Now()
		resp := sys.op(w, in, sp)
		lats = append(lats, time.Since(t0))
		res.Attempted++
		if resp == nil {
			res.Failed++
			continue
		}
		res.Correct = res.Correct && matches(resp, in.want)
		if traced && w.served {
			svc := time.Duration(resp.Stats.ServiceUS) * time.Microsecond
			service = append(service, svc)
			glue = append(glue, sp.durs[layHandler][len(sp.durs[layHandler])-1]-svc)
			res.Correct = res.Correct && sys.mirrorOp(in, sp)
		}
	}
	roundEnd(roundFrom)

	if !traced {
		res.Metrics["op_p50_ms"] = metric{median(p50s), "ms"}
		res.Metrics["op_mean_ms"] = metric{median(means), "ms"}
		res.Metrics["setup_s"] = metric{setupS, "s"}
		return res, nil
	}
	for l, name := range layerMetrics {
		res.Metrics[name] = metric{us(quantile(sp.durs[l], 0.50)), "us"}
	}
	res.Metrics["server_service_us"] = metric{us(quantile(service, 0.50)), "us"}
	res.Metrics["server_glue_us"] = metric{us(quantile(glue, 0.50)), "us"}
	res.Metrics["traced_op_us"] = metric{us(quantile(lats, 0.50)), "us"}
	after := sys.tel.Metrics().Snapshot()
	wait, waitBefore := after.Hists["serve.queue_wait_ns"], before.Hists["serve.queue_wait_ns"]
	waitUS := 0.0
	if n := wait.Count - waitBefore.Count; n > 0 {
		waitUS = float64(wait.Sum-waitBefore.Sum) / float64(n) / 1e3
	}
	res.Metrics["admission_wait_us"] = metric{waitUS, "us"}
	counterMetrics(res.Metrics, before, after, res.Attempted)
	return res, nil
}

// layerMetrics names each layer's median time per operation.
var layerMetrics = [numLayers]string{
	layWireDecode:    "wire_decode_us",
	layAxiomParse:    "axiom_parse_us",
	layLangParse:     "lang_parse_us",
	layAnalysis:      "analysis_us",
	layQueryBuild:    "query_build_us",
	layEngineAcquire: "engine_acquire_us",
	layEngineBatch:   "engine_batch_us",
	layWireEncode:    "wire_encode_us",
	layClientEncode:  "client_encode_us",
	layHandler:       "handler_us",
	layClientDecode:  "client_decode_us",
}

// counterMetrics derives the per-layer counts of the measured window from
// the stack's own telemetry counters.
func counterMetrics(m map[string]metric, before, after telemetry.Snapshot, ops int) {
	delta := func(name string) float64 { return float64(after.Counters[name] - before.Counters[name]) }
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	perOp := func(name string) metric { return metric{ratio(delta(name), float64(ops)), "count"} }
	hits, misses := delta("engine.memo_hits"), delta("engine.memo_misses")
	m["memo_hit_rate"] = metric{ratio(hits, hits+misses), "ratio"}
	m["dfa_hit_rate"] = metric{ratio(delta("automata.shared_hits"), delta("automata.shared_lookups")), "ratio"}
	m["decision_hit_rate"] = metric{ratio(delta("automata.shared_decision_hits"), delta("automata.shared_decision_lookups")), "ratio"}
	m["dfa_compiles_per_op"] = perOp("automata.shared_compiles")
	compileNS := after.Hists["automata.shared_compile_ns"].Sum - before.Hists["automata.shared_compile_ns"].Sum
	m["dfa_compile_us_per_op"] = metric{ratio(float64(compileNS)/1e3, float64(ops)), "us"}
	m["prover_goals_per_op"] = perOp("prover.goals")
	m["prover_inductions_per_op"] = perOp("prover.inductions")
	m["engines_built_per_op"] = perOp("serve.engine_cold")
}

// quantile returns the q-quantile of ds by the nearest-rank method (0 for
// an empty sample).
func quantile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	k := int(q*float64(len(s))+0.5) - 1
	if k < 0 {
		k = 0
	}
	if k >= len(s) {
		k = len(s) - 1
	}
	return s[k]
}

// mean returns the mean of ds (0 for an empty sample).
func mean(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range ds {
		sum += d
	}
	return sum / time.Duration(len(ds))
}

// median returns the median of xs (the upper one for an even count).
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[len(s)/2]
}

// cpuTime returns the CPU time the process has used, user and system, over
// all its threads.  Unlike wall time it leaves out time the host gave to
// other guests, which makes set-up time, a few short samples per run, far
// steadier.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
