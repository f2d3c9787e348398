package core

import (
	"sync"

	"repro/internal/pathexpr"
	"repro/internal/prover"
	"repro/internal/telemetry"
)

// GoalKey is the canonical identity of a disjointness goal ⟨form, x, y⟩:
// the proof form plus the interned IDs of the two normalized operands, in
// canonical orientation.  Two goals share a key exactly when the prover
// treats them as the same theorem:
//
//   - simplification: x and y are normalized with pathexpr.Simplify (via the
//     interner's cached Simplified form), the same normalization
//     prover.Prove applies before searching;
//   - symmetric swap: disjointness is symmetric, so ∀h, h.X <> h.Y and
//     ∀h, h.Y <> h.X are one theorem — and for distinct anchors, renaming
//     the bound handles h↔k turns ∀h<>k, h.X <> k.Y into ∀h<>k, h.Y <> k.X.
//
// The orientation orders the operands by their canonical renderings, not
// by ID: IDs follow first-intern order, which follows goroutine
// scheduling, while a rendering is a pure function of the expression.  The
// renderings are cached on the interned nodes, so building a GoalKey on a
// warm interner is allocation-free.
type GoalKey struct {
	Form prover.Form
	A, B uint64
}

// CanonicalGoalKey returns the canonical identity of the goal ⟨form, x, y⟩.
func CanonicalGoalKey(form prover.Form, x, y pathexpr.Expr) GoalKey {
	k, _, _ := orient(form, pathexpr.Intern(x), pathexpr.Intern(y))
	return k
}

// orient returns the goal's key and its operands in canonical orientation
// — the nodes the prover searches from.
func orient(form prover.Form, xn, yn *pathexpr.Node) (GoalKey, *pathexpr.Node, *pathexpr.Node) {
	a, b := xn.Simplified(), yn.Simplified()
	if b.String() < a.String() {
		return GoalKey{Form: form, A: b.ID(), B: a.ID()}, yn, xn
	}
	return GoalKey{Form: form, A: a.ID(), B: b.ID()}, xn, yn
}

// DefaultMemoShards is the shard count used when NewMemo is given a
// non-positive one.
const DefaultMemoShards = 16

// memoEntry is one canonical goal's slot.  done is closed once proof is
// set; waiters blocked on an in-flight computation read proof afterwards.
type memoEntry struct {
	done  chan struct{}
	proof *prover.Proof
}

// memoKey identifies one memoized proof: the axiom set's interned identity
// plus the canonical goal key.
type memoKey struct {
	ax   uint64
	goal GoalKey
}

type memoShard struct {
	mu sync.Mutex
	m  map[memoKey]*memoEntry
}

// Memo is the sharded cross-query proof memo, private to one Tester or
// shared by concurrent ones (see Tester.SetProofMemo), and the only cache
// of proofs: a prover search keeps no outcome from one search to the
// next.  Proofs are pure functions of (axiom set, goal), so the memo runs
// each search itself, in the goal's canonical orientation: whichever
// worker reaches a goal first, and whatever that worker searched before,
// the proof tree — and the DFAs compiled along the way — are the same.
// Single-flight: when several workers reach one goal concurrently, exactly
// one searches and the rest wait for its result.
//
// Exhausted proofs (budget, timeout, or cancellation artifacts — not
// verdicts about the axioms) are returned to their caller but never
// retained, and never inherited: a waiter that finds the searching worker
// produced an Exhausted artifact runs its own private search, so one
// timed-out query cannot poison the goal for callers with more budget.
//
// An optional per-shard entry cap bounds memory for long-lived processes:
// a shard at its cap drops its completed entries before the next insert
// (in-flight entries are kept — waiters hold them), and every drop counts
// as an eviction.
type Memo struct {
	shards   []memoShard
	perShard int // completed-entry cap per shard; 0 = unbounded

	// Registry counters (nil, so no-ops, when telemetry is off).  A
	// lookup is a hit or a miss, so lookups are their sum.
	hits      *telemetry.Counter
	misses    *telemetry.Counter
	evictions *telemetry.Counter
}

// NewMemo returns a memo with the given shard count (DefaultMemoShards if
// not positive) and per-shard completed-entry cap (0 = unbounded),
// reporting hit/miss/eviction telemetry through tel (nil disables).
func NewMemo(shards, perShardCap int, tel *telemetry.Set) *Memo {
	if shards <= 0 {
		shards = DefaultMemoShards
	}
	// The registry names say "engine": the memo serves the batched engine,
	// and the repository benchmark and /metrics consumers read them.  A
	// Tester's private memo reports under the same names.
	m := &Memo{
		shards:    make([]memoShard, shards),
		perShard:  perShardCap,
		hits:      tel.Counter("engine.memo_hits"),
		misses:    tel.Counter("engine.memo_misses"),
		evictions: tel.Counter("engine.memo_evictions"),
	}
	for i := range m.shards {
		m.shards[i].m = make(map[memoKey]*memoEntry)
	}
	return m
}

// shardFor returns the shard owning key.
func (m *Memo) shardFor(key memoKey) *memoShard {
	h := pathexpr.Mix64(pathexpr.Mix64(pathexpr.Mix64(pathexpr.Mix64(pathexpr.MixInit, key.ax), uint64(key.goal.Form)), key.goal.A), key.goal.B)
	return &m.shards[h%uint64(len(m.shards))]
}

// Prove returns the memoized proof of the goal ⟨form, x, y⟩ over interned
// operands under the axiom set identified by axiomID (see axiom.Set.ID),
// or proves it with prv — a prover over that set — in canonical
// orientation and shares the result.
func (m *Memo) Prove(prv *prover.Prover, axiomID uint64, form prover.Form, x, y *pathexpr.Node) *prover.Proof {
	goal, xn, yn := orient(form, x, y)
	key := memoKey{ax: axiomID, goal: goal}
	sh := m.shardFor(key)

	sh.mu.Lock()
	if e, ok := sh.m[key]; ok {
		sh.mu.Unlock()
		<-e.done
		if p := e.proof; p != nil && p.Result != prover.Exhausted {
			m.hits.Add(1)
			return p
		}
		// The searching worker either died before publishing (panic unwound
		// through it) or ran out of *its* budget — an Exhausted artifact says
		// nothing about the axioms, and this waiter may have a longer
		// deadline.  Search privately rather than inheriting the artifact.
		m.misses.Add(1)
		return prv.ProveNodes(form, xn, yn)
	}
	e := &memoEntry{done: make(chan struct{})}
	if m.perShard > 0 && len(sh.m) >= m.perShard {
		// Epoch eviction: drop every completed entry.  In-flight entries stay
		// — their waiters hold them, and dropping one would let a duplicate
		// search start behind the single-flight's back.
		dropped := int64(0)
		for k, old := range sh.m {
			select {
			case <-old.done:
				delete(sh.m, k)
				dropped++
			default:
			}
		}
		m.evictions.Add(dropped)
	}
	sh.m[key] = e
	sh.mu.Unlock()
	m.misses.Add(1)

	defer func() {
		if e.proof == nil || e.proof.Result == prover.Exhausted {
			// Never retain budget artifacts (or a missing result after a
			// panic): drop the entry so later callers re-attempt the goal.
			sh.mu.Lock()
			if sh.m[key] == e {
				delete(sh.m, key)
			}
			sh.mu.Unlock()
		}
		close(e.done)
	}()
	e.proof = prv.ProveNodes(form, xn, yn)
	return e.proof
}

// Len returns the number of memoized goals currently held, in-flight
// ones included.
func (m *Memo) Len() int {
	n := 0
	for i := range m.shards {
		m.shards[i].mu.Lock()
		n += len(m.shards[i].m)
		m.shards[i].mu.Unlock()
	}
	return n
}
