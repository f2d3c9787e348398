// Package exec is the execution tier of the query plane: the bounded pool
// of warm per-axiom-set engines over one pool-owned DFA cache and proof
// memo, the raw-query builder that turns wire queries into core ones, and
// the warm-state snapshot/preload operations the cluster's ring-change
// handoff rides on.  It knows nothing about HTTP or admission —
// internal/serve composes it under both.
package exec

import (
	"sort"
	"sync"
	"time"

	"repro/internal/automata"
	"repro/internal/axiom"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/prover"
	"repro/internal/telemetry"
)

// PoolConfig sizes a Pool and the engines it builds.
type PoolConfig struct {
	// Workers is each engine's pool width (minimum 1).
	Workers int
	// QueryTimeout is the engines' default per-query proof-search bound.
	QueryTimeout time.Duration
	// MaxEngines bounds the resident engine population (LRU beyond; ≤0
	// means unbounded).
	MaxEngines int
	// DFAShardCap and MemoShardCap bound the shards of the pool's DFA
	// cache and proof memo.
	DFAShardCap  int
	MemoShardCap int
	// VerifyProofs re-checks every prover-backed No independently.
	VerifyProofs bool
	// Preload, when non-nil, preseeds the pool's caches with a compiled
	// automata artifact and builds an engine for each axiom set it carries.
	Preload *automata.Artifact
}

// Pool keeps one warm engine.Engine per axiom-set fingerprint, reclaiming
// the least-recently-used engine when the population exceeds its cap.  The
// costly state is not the engines': the pool owns one DFA cache and one
// proof memo, bounded by the config's shard caps, and every engine borrows
// them.  DFAs are keyed by alphabet and proofs by axiom-set identity, so
// sharing is exact across sets, and an evicted engine's warm state stays
// for the next engine that needs it.  Eviction only unlinks the engine
// from the pool: an in-flight batch still running on it finishes normally,
// so no request ever observes a half-dead engine.
type Pool struct {
	cfg  PoolConfig
	tel  *telemetry.Set
	dfas *automata.SharedCache
	memo *core.Memo

	mu      sync.Mutex
	seq     int64
	entries map[uint64]*poolEntry

	evicted telemetry.Counter // feeds serve.engines_evicted
	cCold   *telemetry.Counter
	cWarm   *telemetry.Counter
}

// poolEntry is one resident engine plus its bookkeeping.
type poolEntry struct {
	id      uint64 // axiom.Set.ID() identity (the pool's map key)
	fp      uint64 // axiom.Set.Fingerprint64(), the cross-process identity
	key     string // axiom.Set.Key() fingerprint, kept for /statz ordering
	name    string // human-readable axiom-set name
	eng     *engine.Engine
	lastUse int64 // pool sequence number of the most recent get
	uses    int64
}

// NewPool builds a pool, preseeded from cfg.Preload when set.  Its
// eviction count and the read-at-scrape gauges of its population and cache
// sizes report under tel's serve.* names.
func NewPool(cfg PoolConfig, tel *telemetry.Set) *Pool {
	if cfg.Workers < 1 {
		cfg.Workers = 1
	}
	p := &Pool{
		cfg:     cfg,
		tel:     tel,
		dfas:    automata.NewSharedCache(0, 0, cfg.DFAShardCap).SetTelemetry(tel),
		memo:    core.NewMemo(0, cfg.MemoShardCap, tel),
		entries: make(map[uint64]*poolEntry),
		cCold:   tel.Counter("serve.engine_cold"),
		cWarm:   tel.Counter("serve.engine_warm"),
	}
	p.evicted.Feed(tel.Counter("serve.engines_evicted"))
	tel.GaugeFunc("serve.engines_resident", func() int64 { return int64(p.Len()) })
	tel.GaugeFunc("serve.dfa_entries", func() int64 { return int64(p.dfas.Len()) })
	tel.GaugeFunc("serve.decision_entries", func() int64 { return int64(p.dfas.OpsLen()) })
	tel.GaugeFunc("serve.memo_entries", func() int64 { return int64(p.memo.Stats().Entries) })
	if cfg.Preload != nil {
		p.PreloadArtifact(cfg.Preload)
	}
	return p
}

// DFACache returns the DFA cache every engine of the pool borrows.
func (p *Pool) DFACache() *automata.SharedCache { return p.dfas }

// Memo returns the proof memo every engine of the pool borrows.
func (p *Pool) Memo() *core.Memo { return p.memo }

// Get returns the warm engine for the axiom set, building one on a cold
// miss.  cold reports whether this call built it.
func (p *Pool) Get(ax *axiom.Set) (eng *engine.Engine, cold bool) {
	id := ax.ID()
	p.mu.Lock()
	defer p.mu.Unlock()
	p.seq++
	if e, ok := p.entries[id]; ok {
		e.lastUse = p.seq
		e.uses++
		p.cWarm.Add(1)
		return e.eng, false
	}
	e := &poolEntry{
		id:   id,
		fp:   ax.Fingerprint64(),
		key:  ax.Key(),
		name: ax.StructName,
		eng: engine.New(ax, engine.Options{
			Workers:      p.cfg.Workers,
			QueryTimeout: p.cfg.QueryTimeout,
			Prover:       prover.Options{Telemetry: p.tel},
			VerifyProofs: p.cfg.VerifyProofs,
			Telemetry:    p.tel,
			DFACache:     p.dfas,
			Memo:         p.memo,
		}),
		lastUse: p.seq,
		uses:    1,
	}
	p.entries[id] = e
	p.cCold.Add(1)
	for p.cfg.MaxEngines > 0 && len(p.entries) > p.cfg.MaxEngines {
		var lru *poolEntry
		for _, cand := range p.entries {
			if cand != e && (lru == nil || cand.lastUse < lru.lastUse) {
				lru = cand
			}
		}
		if lru == nil {
			break
		}
		delete(p.entries, lru.id)
		p.evicted.Add(1)
	}
	return e.eng, true
}

// SnapshotArtifact renders the pool's warm state — compiled DFAs,
// decision tables, and memoized proof goals, each goal scoped to its
// axiom-set fingerprint — plus the fingerprinted engine's axiom set as a
// portable artifact, or nil when no such engine is resident.  The lookup
// leaves the engine's LRU position alone (a snapshot request must not keep
// an otherwise idle engine alive).
func (p *Pool) SnapshotArtifact(fp uint64) *automata.Artifact {
	p.mu.Lock()
	var eng *engine.Engine
	for _, e := range p.entries {
		if e.fp == fp {
			eng = e.eng
			break
		}
	}
	p.mu.Unlock()
	if eng == nil {
		return nil
	}
	return eng.SnapshotArtifact()
}

// PreloadArtifact preseeds the pool's caches from the artifact and builds
// (or warms) an engine for every axiom set it carries.  It returns the
// number of engines built cold.
func (p *Pool) PreloadArtifact(art *automata.Artifact) int {
	p.dfas.Preseed(art)
	p.memo.Preseed(art)
	built := 0
	for _, set := range engine.ArtifactAxiomSets(art) {
		if _, cold := p.Get(set); cold {
			built++
		}
	}
	return built
}

// View is a read-only copy of one resident engine's bookkeeping, taken
// under the pool lock (the mutable lastUse/uses fields must not be read
// while another Get mutates them).
type View struct {
	Key  string
	Name string
	Eng  *engine.Engine
	Uses int64
}

// Snapshot returns the resident entries sorted by name then key, for the
// /statz engine table.
func (p *Pool) Snapshot() []View {
	p.mu.Lock()
	out := make([]View, 0, len(p.entries))
	for _, e := range p.entries {
		out = append(out, View{Key: e.key, Name: e.name, Eng: e.eng, Uses: e.uses})
	}
	p.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Name != out[j].Name {
			return out[i].Name < out[j].Name
		}
		return out[i].Key < out[j].Key
	})
	return out
}

// Len reports the resident engine count.
func (p *Pool) Len() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.entries)
}
