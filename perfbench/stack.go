package main

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"repro/internal/analysis"
	"repro/internal/axiom"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/lang"
	"repro/internal/serve"
	"repro/internal/telemetry"
	"repro/internal/wire"
)

// layer names one boundary the benchmark times from the outside: a call
// into one package of the query plane.
type layer int

const (
	layWireDecode    layer = iota // wire: JSON request body → BatchRequest
	layAxiomParse                 // axiom: raw-mode axiom text → Set
	layLangParse                  // lang: mini-C source → AST
	layAnalysis                   // analysis: AST → access paths
	layQueryBuild                 // analysis/exec: query lines or raw queries → core.Query
	layEngineAcquire              // exec: warm engine lookup, or a cold build
	layEngineBatch                // engine: proof search (prover) over cached automata
	layWireEncode                 // wire: BatchResponse → JSON body
	layClientEncode               // client side: BatchRequest → JSON body
	layHandler                    // serve: the whole ServeHTTP call
	layClientDecode               // client side: JSON body → BatchResponse
	numLayers
)

// spans collects per-layer durations.  A nil *spans records nothing, which
// is how the untraced runs call the same code without timing each layer.
type spans struct {
	durs [numLayers][]time.Duration
}

func (s *spans) start() time.Time {
	if s == nil {
		return time.Time{}
	}
	return time.Now()
}

func (s *spans) end(l layer, t0 time.Time) {
	if s != nil {
		s.durs[l] = append(s.durs[l], time.Since(t0))
	}
}

// poolConfig mirrors the engine pool internal/serve builds for the server
// configuration the benchmark uses (see serverConfig).
var poolConfig = exec.PoolConfig{
	Workers:      1,
	QueryTimeout: serve.DefaultQueryTimeout,
	MaxEngines:   maxEngines,
	DFAShardCap:  serve.DefaultShardCap,
	MemoShardCap: serve.DefaultShardCap,
}

// stack is the query plane composed layer by layer, the way internal/serve
// composes it for one /v1/batch request, so that each layer's cost can be
// timed around its call.
type stack struct {
	pool *exec.Pool
	tel  *telemetry.Set
}

func newStack(tel *telemetry.Set) *stack {
	return &stack{pool: exec.NewPool(poolConfig, tel), tel: tel}
}

// serve answers one JSON request body with a JSON response body.
func (s *stack) serve(body []byte, sp *spans) ([]byte, error) {
	t := sp.start()
	var req wire.BatchRequest
	err := json.Unmarshal(body, &req)
	sp.end(layWireDecode, t)
	if err != nil {
		return nil, err
	}
	resp, err := s.answer(&req, sp)
	if err != nil {
		return nil, err
	}
	t = sp.start()
	out, err := json.MarshalIndent(resp, "", "  ")
	sp.end(layWireEncode, t)
	return out, err
}

// answer runs one decoded request through the front end (program or raw
// mode), the engine pool and the engine.
func (s *stack) answer(req *wire.BatchRequest, sp *spans) (*wire.BatchResponse, error) {
	var (
		ax      *axiom.Set
		queries []core.Query
	)
	if len(req.Raw) > 0 {
		t := sp.start()
		set, err := axiom.ParseSet(req.AxiomSetName, req.AxiomSet)
		sp.end(layAxiomParse, t)
		if err != nil {
			return nil, err
		}
		t = sp.start()
		queries, err = exec.BuildRawQueries(set, req.Raw)
		sp.end(layQueryBuild, t)
		if err != nil {
			return nil, err
		}
		ax = set
	} else {
		t := sp.start()
		prog, err := lang.Parse(req.Program)
		sp.end(layLangParse, t)
		if err != nil {
			return nil, err
		}
		t = sp.start()
		res, err := analysis.Analyze(prog, req.Fn, analysis.Options{InferTypeAxioms: true, Telemetry: s.tel})
		sp.end(layAnalysis, t)
		if err != nil {
			return nil, err
		}
		t = sp.start()
		queries, err = expandLines(req.Queries, res)
		sp.end(layQueryBuild, t)
		if err != nil {
			return nil, err
		}
		ax = res.Axioms
	}
	t := sp.start()
	eng, _ := s.pool.Get(ax)
	sp.end(layEngineAcquire, t)
	t = sp.start()
	outs := eng.Batch(context.Background(), queries)
	sp.end(layEngineBatch, t)

	resp := &wire.BatchResponse{Results: make([]wire.QueryResult, len(outs))}
	for i, out := range outs {
		resp.Results[i] = wire.QueryResult{
			S:      queries[i].S.String(),
			T:      queries[i].T.String(),
			Result: out.Result.String(),
			Kind:   out.Kind.String(),
			Reason: out.Reason,
		}
		resp.Dependent = resp.Dependent || out.Result != core.No
	}
	resp.Stats.Queries = len(outs)
	return resp, nil
}

// expandLines turns aptdep -batch query lines into core queries against an
// analysis result ("between S T", "cross S T", "loop U").
func expandLines(lines []string, res *analysis.Result) ([]core.Query, error) {
	var out []core.Query
	for _, line := range lines {
		f := strings.Fields(line)
		var (
			qs  []core.Query
			err error
		)
		switch {
		case len(f) == 3 && f[0] == "between":
			qs, err = res.QueriesBetween(f[1], f[2])
		case len(f) == 3 && f[0] == "cross":
			qs, err = res.LoopCarriedBetween(f[1], f[2])
		case len(f) == 2 && f[0] == "loop":
			qs, err = res.LoopCarriedQueries(f[1])
		default:
			err = fmt.Errorf("bad query line %q", line)
		}
		if err != nil {
			return nil, err
		}
		out = append(out, qs...)
	}
	return out, nil
}
