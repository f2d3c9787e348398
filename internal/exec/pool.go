// Package exec is the execution tier of the query plane: the process's one
// engine over one pool-owned DFA cache and proof memo, the raw-query
// builder that turns wire queries into core ones, and the warm-state
// snapshot/preload operations the cluster's ring-change handoff rides on.
// It knows nothing about HTTP or admission — internal/serve composes it
// under both.
package exec

import (
	"context"
	"time"

	"repro/internal/automata"
	"repro/internal/axiom"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/prover"
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
	// Preload, when non-nil, preseeds the pool's caches with a compiled
	// automata artifact.
	Preload *automata.Artifact
}

// Pool owns the process's warm state — one DFA cache and one proof memo,
// bounded by the config's shard caps — and the one engine that answers
// every batch over them.  Each query carries the axiom set valid across
// its window (§3.4), and DFAs are keyed by alphabet and proofs by
// axiom-set identity, so one engine serves every axiom set exactly.
type Pool struct {
	dfas *automata.SharedCache
	memo *core.Memo
	eng  *engine.Engine
}

// NewPool builds a pool, preseeded from cfg.Preload when set.  The
// read-at-scrape gauges of its cache sizes report under tel's serve.*
// names.
func NewPool(cfg PoolConfig, tel *telemetry.Set) *Pool {
	p := &Pool{
		dfas: automata.NewSharedCache(0, 0, cfg.DFAShardCap).SetTelemetry(tel),
		memo: core.NewMemo(0, cfg.MemoShardCap, tel),
	}
	p.eng = engine.New(engine.Options{
		Workers:      cfg.Workers,
		QueryTimeout: cfg.QueryTimeout,
		Prover:       prover.Options{Telemetry: tel},
		VerifyProofs: cfg.VerifyProofs,
		Telemetry:    tel,
		DFACache:     p.dfas,
		Memo:         p.memo,
	})
	tel.GaugeFunc("serve.dfa_entries", func() int64 { return int64(p.dfas.Len()) })
	tel.GaugeFunc("serve.decision_entries", func() int64 { return int64(p.dfas.OpsLen()) })
	tel.GaugeFunc("serve.memo_entries", func() int64 { return int64(p.memo.Stats().Entries) })
	if cfg.Preload != nil {
		p.PreloadArtifact(cfg.Preload)
	}
	return p
}

// DFACache returns the DFA cache the pool's engine borrows.
func (p *Pool) DFACache() *automata.SharedCache { return p.dfas }

// Memo returns the proof memo the pool's engine borrows.
func (p *Pool) Memo() *core.Memo { return p.memo }

// Batch answers the queries on the pool's engine, each under its own axiom
// set, with perQuery bounding each proof search (see
// engine.Engine.BatchTimeout).  Every query must carry its Axioms.
func (p *Pool) Batch(ctx context.Context, queries []core.Query, perQuery time.Duration) []core.Outcome {
	return p.eng.BatchTimeout(ctx, queries, perQuery)
}

// Get returns the pool's one engine, never cold; the axiom set is unused,
// since every query carries its own.
//
// Deprecated: kept only for perfbench's mirror stack, removed by the
// benchmark PR that replaces raw-churn.  Use Batch.
func (p *Pool) Get(*axiom.Set) (eng *engine.Engine, cold bool) { return p.eng, false }

// SnapshotArtifact renders the pool's warm state — compiled DFAs, decision
// tables, and memoized proof goals, each goal scoped to its axiom-set
// fingerprint — as a portable artifact, or nil when the memo holds no goal
// scoped to the axiom set with fingerprint fp.
func (p *Pool) SnapshotArtifact(fp uint64) *automata.Artifact {
	art := p.dfas.Snapshot()
	p.memo.AppendGoals(art)
	for _, sig := range art.Sigs {
		if axiom.Fingerprint64ForKey(sig) == fp {
			return art
		}
	}
	return nil
}

// PreloadArtifact preseeds the pool's caches from the artifact and returns
// the number of DFAs, decisions and proof goals it inserted (entries
// already present are skipped).
func (p *Pool) PreloadArtifact(art *automata.Artifact) (dfas, decisions, goals int) {
	dfas, decisions = p.dfas.Preseed(art)
	return dfas, decisions, p.memo.Preseed(art)
}
