// Package exec is the execution tier of the query plane: the process's one
// engine over one pool-owned DFA cache and proof memo, and the pool's
// bounded request table, which turns a request's text into core queries —
// a raw-mode request's through the raw-query builder, a program-mode
// request's through the front end (parse, analysis, query expansion) — and
// their response rows, and keeps what it built.  It knows nothing about HTTP or admission —
// internal/serve composes it under both.
package exec

import (
	"context"
	"time"

	"repro/internal/automata"
	"repro/internal/axiom"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/telemetry"
)

// PoolConfig sizes a Pool and its engine.
type PoolConfig struct {
	// Workers is the engine's pool width (minimum 1).
	Workers int
	// QueryTimeout is the engine's default per-query proof-search bound.
	QueryTimeout time.Duration
	// Deprecated: ignored; set only by perfbench, removed by the benchmark PR that replaces raw-churn.
	MaxEngines int
	// DFAShardCap and MemoShardCap bound the shards of the pool's DFA
	// cache and proof memo.
	DFAShardCap  int
	MemoShardCap int
	// VerifyProofs re-checks every prover-backed No independently.
	VerifyProofs bool
}

// Pool owns the process's warm state — one DFA cache and one proof memo,
// bounded by the config's shard caps, and the request table Queries
// resolves through — and the one engine that answers every batch over
// them.  Each query carries the axiom set valid across its window (§3.4),
// and DFAs are keyed by alphabet and proofs by axiom-set identity, so one
// engine serves every axiom set exactly.
type Pool struct {
	dfas  *automata.SharedCache
	memo  *core.Memo
	eng   *engine.Engine
	table *reqTable
}

// NewPool builds a pool with cold caches.  The read-at-scrape gauges of
// its cache sizes report under tel's serve.* names.
func NewPool(cfg PoolConfig, tel *telemetry.Set) *Pool {
	p := &Pool{
		dfas:  automata.NewSharedCache(0, cfg.DFAShardCap).SetTelemetry(tel),
		memo:  core.NewMemo(0, cfg.MemoShardCap, tel),
		table: newReqTable(),
	}
	p.eng = engine.New(engine.Options{
		Workers:      cfg.Workers,
		QueryTimeout: cfg.QueryTimeout,
		VerifyProofs: cfg.VerifyProofs,
		Telemetry:    tel,
		DFACache:     p.dfas,
		Memo:         p.memo,
	})
	tel.GaugeFunc("serve.dfa_entries", func() int64 { return int64(p.dfas.Len()) })
	tel.GaugeFunc("serve.decision_entries", func() int64 { return int64(p.dfas.OpsLen()) })
	tel.GaugeFunc("serve.memo_entries", func() int64 { return int64(p.memo.Len()) })
	return p
}

// Batch answers the queries on the pool's engine, each under its own axiom
// set, with perQuery bounding each proof search and set placing the batch
// in its caller's span tree (nil: the engine's own; see
// engine.Engine.BatchTimeout).  Every query must carry its Axioms.
func (p *Pool) Batch(ctx context.Context, queries []core.Query, perQuery time.Duration, set *telemetry.Set) []core.Outcome {
	return p.eng.BatchTimeout(ctx, queries, perQuery, set)
}

// Get returns the pool's one engine, never cold; the axiom set is unused,
// since every query carries its own.
//
// Deprecated: kept only for perfbench's mirror stack, removed by the
// benchmark PR that replaces raw-churn.  Use Batch.
func (p *Pool) Get(*axiom.Set) (eng *engine.Engine, cold bool) { return p.eng, false }
