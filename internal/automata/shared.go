package automata

import (
	"sync"
	"time"

	"repro/internal/pathexpr"
	"repro/internal/telemetry"
)

// CacheStats counts a SharedCache's work.
type CacheStats struct {
	// Lookups is the number of DFA requests.
	Lookups int
	// Hits is the number of requests served from the cache.
	Hits int
	// Compiles is the number of subset constructions performed.
	Compiles int
	// LimitFailures counts compilations and product constructions aborted
	// by the state limit.
	LimitFailures int
}

// dfaKey identifies one compiled DFA: an interned alphabet identity plus an
// interned expression identity.  A fixed-size comparable struct, so a
// lookup builds its key without allocating or re-rendering the expression.
type dfaKey struct {
	alpha uint64
	expr  uint64
}

// DefaultSharedShards is the shard count used when NewSharedCache is given
// a non-positive one.  Sixteen shards keep lock contention negligible for
// pool widths far beyond anything the engine spawns.
const DefaultSharedShards = 16

// SharedCache is the DFA cache: compiled DFAs memoized by (alphabet,
// expression) in a fixed array of mutex-guarded shards, plus a memo of the
// boolean language decisions built on them.  It is safe for concurrent use;
// a single-owner cache (a prover's private one) is simply one shard.
// Compiled DFAs are immutable, so a value read under one shard's lock is
// safe to use forever after; two goroutines racing to compile the same
// expression both succeed and the loser adopts the winner's automaton
// (duplicate work, never wrong answers).
//
// An optional per-shard entry cap bounds memory: a shard at its cap is
// emptied wholesale before the next insert (epoch eviction — no LRU
// bookkeeping on the hit path), and every dropped entry counts as an
// eviction in the stats and telemetry.
type SharedCache struct {
	limit      int
	perShard   int // entry cap per shard; 0 = unbounded
	noMinimize bool
	shards     []sharedShard

	// The cache's own counts; SetTelemetry feeds them into the registry.
	// Both eviction counters feed the one automata.shared_evictions.
	lookups      telemetry.Counter
	hits         telemetry.Counter
	compiles     telemetry.Counter
	limitFails   telemetry.Counter
	dfaEvictions telemetry.Counter
	opsEvictions telemetry.Counter

	tel           *telemetry.Set
	cDecisions    *telemetry.Counter
	cDecisionHits *telemetry.Counter
	compileTimeNS *telemetry.Histogram
	compileWin    *telemetry.WindowHistogram
}

// opsKey identifies one memoized boolean language decision: the operation,
// the interned alphabet identity, and the interned identities of both
// expressions.  A fixed-size comparable struct, so a warm decision lookup
// builds its key with no string concatenation and no allocation.
type opsKey struct {
	op    byte
	alpha uint64
	x, y  uint64
}

type sharedShard struct {
	mu   sync.RWMutex
	dfas map[dfaKey]*DFA
	// ops memoizes the boolean answers of Includes/Disjoint/Equivalent
	// (keyed by op, alphabet, and both expressions) — the product
	// constructions they run are pure functions of immutable DFAs.
	ops map[opsKey]bool
}

// NewSharedCache returns a concurrency-safe cache with the given subset
// construction state limit (DefaultStateLimit if limit <= 0), shard count
// (DefaultSharedShards if shards <= 0), and per-shard entry cap
// (0 = unbounded).
func NewSharedCache(limit, shards, perShardCap int) *SharedCache {
	if limit <= 0 {
		limit = DefaultStateLimit
	}
	if shards <= 0 {
		shards = DefaultSharedShards
	}
	c := &SharedCache{limit: limit, perShard: perShardCap, shards: make([]sharedShard, shards)}
	for i := range c.shards {
		c.shards[i].dfas = make(map[dfaKey]*DFA)
		c.shards[i].ops = make(map[opsKey]bool)
	}
	return c
}

// SetTelemetry wires the cache's counters and compile events into tel
// (nil disables, the default).  Call it before the first lookup.  Returns
// the cache for chaining.
func (c *SharedCache) SetTelemetry(tel *telemetry.Set) *SharedCache {
	c.tel = tel
	c.lookups.Feed(tel.Counter("automata.shared_lookups"))
	c.hits.Feed(tel.Counter("automata.shared_hits"))
	c.compiles.Feed(tel.Counter("automata.shared_compiles"))
	c.limitFails.Feed(tel.Counter("automata.shared_state_limit_failures"))
	evictions := tel.Counter("automata.shared_evictions")
	c.dfaEvictions.Feed(evictions)
	c.opsEvictions.Feed(evictions)
	c.cDecisions = tel.Counter("automata.shared_decision_lookups")
	c.cDecisionHits = tel.Counter("automata.shared_decision_hits")
	c.compileTimeNS = tel.Histogram("automata.shared_compile_ns")
	c.compileWin = tel.Window("automata.shared_compile_ns")
	return c
}

// SkipMinimize makes the cache keep DFAs as subset construction built them,
// without Hopcroft minimization (the prover's minimization ablation).  Call
// it before the first lookup.  Returns the cache for chaining.
func (c *SharedCache) SkipMinimize() *SharedCache {
	c.noMinimize = true
	return c
}

// shardAt routes a mixed 64-bit key hash to its shard.
func (c *SharedCache) shardAt(h uint64) *sharedShard {
	return &c.shards[h%uint64(len(c.shards))]
}

// DFA returns the compiled DFA for the interned expression n over alphabet
// a (minimized unless SkipMinimize was called), compiling at most once per
// key in the steady state.  Callers holding a bare expression intern it at
// their call site (pathexpr.Intern); the cache itself never re-hashes one.
func (c *SharedCache) DFA(n *pathexpr.Node, a *Alphabet) (*DFA, error) {
	return c.dfa(n, a, nil)
}

// dfa is DFA that also adds one to *compiles (when non-nil) if this call
// ran the subset construction itself.
func (c *SharedCache) dfa(n *pathexpr.Node, a *Alphabet, compiles *int) (*DFA, error) {
	c.lookups.Add(1)
	key := dfaKey{alpha: a.ID(), expr: n.ID()}
	sh := c.shardAt(pathexpr.Mix64(pathexpr.Mix64(pathexpr.MixInit, key.alpha), key.expr))
	sh.mu.RLock()
	d, ok := sh.dfas[key]
	sh.mu.RUnlock()
	if ok {
		c.hits.Add(1)
		return d, nil
	}

	timed := c.compileTimeNS != nil || c.tel.TraceEnabled()
	var t0 time.Time
	if timed {
		t0 = time.Now()
	}
	d, err := CompileLimit(n.Expr(), a, c.limit)
	if err != nil {
		c.limitFails.Add(1)
		return nil, err
	}
	built := d.NumStates()
	if !c.noMinimize {
		d = d.Minimize()
	}
	c.compiles.Add(1)
	if compiles != nil {
		*compiles++
	}
	if timed {
		dur := time.Since(t0)
		c.compileTimeNS.Observe(dur.Nanoseconds())
		c.compileWin.Observe(dur.Nanoseconds())
		c.tel.Emit("automata.compile",
			telemetry.String("expr", n.String()),
			telemetry.Int("states", built),
			telemetry.Int("min_states", d.NumStates()),
			telemetry.DurUS("dur_us", dur))
	}

	sh.mu.Lock()
	if prior, ok := sh.dfas[key]; ok {
		// A concurrent compile won the race; keep its value so every caller
		// observes one steady automaton per key.
		sh.mu.Unlock()
		return prior, nil
	}
	if c.perShard > 0 && len(sh.dfas) >= c.perShard {
		dropped := len(sh.dfas)
		sh.dfas = make(map[dfaKey]*DFA, c.perShard)
		c.dfaEvictions.Add(int64(dropped))
	}
	sh.dfas[key] = d
	sh.mu.Unlock()
	return d, nil
}

// Stats returns the cache's work counters so far.  Safe to call
// concurrently with lookups; the counters are individually atomic.
func (c *SharedCache) Stats() CacheStats {
	return CacheStats{
		Lookups:       int(c.lookups.Value()),
		Hits:          int(c.hits.Value()),
		Compiles:      int(c.compiles.Value()),
		LimitFailures: int(c.limitFails.Value()),
	}
}

// DFAEvictions returns the evictions charged to the DFA map.
func (c *SharedCache) DFAEvictions() int64 { return c.dfaEvictions.Value() }

// OpsEvictions returns the evictions charged to the decision memo.
func (c *SharedCache) OpsEvictions() int64 { return c.opsEvictions.Value() }

// Len reports the number of cached DFAs across all shards.
func (c *SharedCache) Len() int {
	n := 0
	for i := range c.shards {
		c.shards[i].mu.RLock()
		n += len(c.shards[i].dfas)
		c.shards[i].mu.RUnlock()
	}
	return n
}

// OpsLen reports the number of memoized boolean decisions across all
// shards.  Together with Len it is what a long-lived process watches to
// know the cache honors its cap.
func (c *SharedCache) OpsLen() int {
	n := 0
	for i := range c.shards {
		c.shards[i].mu.RLock()
		n += len(c.shards[i].ops)
		c.shards[i].mu.RUnlock()
	}
	return n
}

// Decision operations: the op byte of an opsKey.
const (
	opIncludes   = 'i'
	opDisjoint   = 'd'
	opEquivalent = 'e'
)

// decide answers a binary language decision through the per-shard decision
// memo, adding the DFA compiles it ran to *compiles (when non-nil).  The key
// is the operands' interned IDs, so a warm decision hashes four integers
// and probes one map: no expression is walked, rendered, or interned.
// Compiled DFAs are deterministic, so the boolean answer for an (op,
// alphabet, x, y) key never changes; product constructions (complement,
// intersection, emptiness) dominate the prover's direct checks once the DFAs
// themselves are cached, and the same decisions recur across the goals of a
// batch.
func (c *SharedCache) decide(op byte, x, y *pathexpr.Node, a *Alphabet, compiles *int) (bool, error) {
	c.cDecisions.Add(1)
	key := opsKey{op: op, alpha: a.ID(), x: x.ID(), y: y.ID()}
	h := pathexpr.Mix64(pathexpr.Mix64(pathexpr.Mix64(pathexpr.Mix64(pathexpr.MixInit, uint64(key.op)), key.alpha), key.x), key.y)
	sh := c.shardAt(h)
	sh.mu.RLock()
	v, ok := sh.ops[key]
	sh.mu.RUnlock()
	if ok {
		c.cDecisionHits.Add(1)
		return v, nil
	}
	dx, err := c.dfa(x, a, compiles)
	if err != nil {
		return false, err
	}
	dy, err := c.dfa(y, a, compiles)
	if err != nil {
		return false, err
	}
	switch op {
	case opIncludes:
		v, err = dx.IncludesLimit(dy, c.limit)
	case opDisjoint:
		var prod *DFA
		if prod, err = dx.IntersectLimit(dy, c.limit); err == nil {
			v = prod.IsEmpty()
		}
	case opEquivalent:
		v, err = dx.EquivalentLimit(dy, c.limit)
	}
	if err != nil {
		// A blown product budget is not memoized: the answer is "don't
		// know", not false, and a retry under a larger budget must be free
		// to succeed.
		c.limitFails.Add(1)
		return false, err
	}
	sh.mu.Lock()
	if c.perShard > 0 && len(sh.ops) >= c.perShard {
		// The decision memo obeys the same per-shard epoch eviction as the
		// DFA map: in a long-lived process both would otherwise grow without
		// bound, and the `ops` side is the easier one to forget because each
		// entry is one bool — millions of forgotten bools are still a leak.
		dropped := len(sh.ops)
		sh.ops = make(map[opsKey]bool, c.perShard)
		c.opsEvictions.Add(int64(dropped))
	}
	sh.ops[key] = v
	sh.mu.Unlock()
	return v, nil
}

// Includes reports L(sub) ⊆ L(sup) over alphabet a, under the cache's
// product-state budget.
func (c *SharedCache) Includes(sub, sup *pathexpr.Node, a *Alphabet) (bool, error) {
	return c.decide(opIncludes, sub, sup, a, nil)
}

// Disjoint reports L(x) ∩ L(y) = ∅ over alphabet a, under the cache's
// product-state budget.
func (c *SharedCache) Disjoint(x, y *pathexpr.Node, a *Alphabet) (bool, error) {
	return c.decide(opDisjoint, x, y, a, nil)
}

// Equivalent reports L(x) = L(y) over alphabet a, under the cache's
// product-state budget.
func (c *SharedCache) Equivalent(x, y *pathexpr.Node, a *Alphabet) (bool, error) {
	return c.decide(opEquivalent, x, y, a, nil)
}

// Account is one caller's handle on a SharedCache: its lookups go through
// the cache, and Compiles counts the subset constructions those lookups ran
// themselves.  A prover sharing its cache with concurrent workers uses one
// per search, so the compiles it reports are its own and not theirs.
type Account struct {
	c *SharedCache
	// Compiles is the number of DFAs this account's lookups compiled.
	Compiles int
}

// Account returns a fresh handle on c with a zero compile count.
func (c *SharedCache) Account() Account { return Account{c: c} }

// DFA is SharedCache.DFA, charging a compile to the account.
func (ac *Account) DFA(n *pathexpr.Node, a *Alphabet) (*DFA, error) {
	return ac.c.dfa(n, a, &ac.Compiles)
}

// Includes is SharedCache.Includes, charging its compiles to the account.
func (ac *Account) Includes(sub, sup *pathexpr.Node, a *Alphabet) (bool, error) {
	return ac.c.decide(opIncludes, sub, sup, a, &ac.Compiles)
}

// Equivalent is SharedCache.Equivalent, charging its compiles to the
// account.
func (ac *Account) Equivalent(x, y *pathexpr.Node, a *Alphabet) (bool, error) {
	return ac.c.decide(opEquivalent, x, y, a, &ac.Compiles)
}
