// Package engine is the concurrency-safe batched dependence-query engine:
// it answers many core.Query instances, each under the axiom set it
// carries, by fanning them across parallel.Pool workers, each owning a
// sequential core.Tester whose expensive layers — the DFA compilation
// cache and the theorem-prover verdicts — are shared across the whole
// batch through an automata.SharedCache and a core.Memo.  Both are pure functions of their
// keys (a DFA of expression and alphabet, a proof of axiom set and goal),
// so an engine may borrow them from a longer-lived owner: exec.Pool lends
// one bounded pair to the process's one engine.
//
// The clients this serves (the parallelization-legality lint pass, aptdep
// -batch sweeps, sparsebench's legality certification) issue hundreds of
// closely related queries: the same goal re-asked under several §3.4 axiom
// windows, and symmetric pairs — a loop pass asks both ⟨a,b⟩ and ⟨b,a⟩.
// The memo's canonical goal keys (core.GoalKey) and DFAs shared across
// windows convert that redundancy into cache hits while keeping verdicts
// identical to the sequential tester's (enforced by the differential
// harness in differential_test.go).
package engine

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/automata"
	"repro/internal/core"
	"repro/internal/parallel"
	"repro/internal/prover"
	"repro/internal/telemetry"
)

// Options configures an Engine.  The zero value selects a single worker
// with default prover budgets and no per-query timeout.
type Options struct {
	// Workers is the pool width Batch fans queries across (minimum 1).
	Workers int
	// QueryTimeout, when positive, bounds each query's wall-clock proof
	// search; an expired query degrades to Maybe (never to an unsound No).
	QueryTimeout time.Duration
	// VerifyProofs re-checks every prover-backed No with the independent
	// proof checker, as on the sequential Tester.
	VerifyProofs bool
	// Telemetry is the engine's registry and default trace: every counter
	// the engine, its testers and its provers book goes to its registry
	// (nil, the default, disables them), and a batch run without a Set of
	// its own (Batch, the CLIs) opens its spans on its trace.
	Telemetry *telemetry.Set
	// DFACache and Memo are the compiled-DFA cache and the cross-query
	// proof memo the engine's workers share.  A long-lived process
	// (exec.Pool) builds one bounded pair and lends it to its engine; the
	// lender owns their bounds and telemetry.  Nil selects a
	// private unbounded cache — right for a one-shot batch, a leak for a
	// server.
	DFACache *automata.SharedCache
	Memo     *core.Memo
}

// Engine answers batches of dependence queries concurrently while keeping
// every verdict identical to the sequential core.Tester's (see package doc;
// differential_test.go enforces the equivalence).  An Engine is safe for
// concurrent use, though a single Batch already saturates its pool.
type Engine struct {
	opts Options
	pool *parallel.Pool
	dfas *automata.SharedCache
	memo *core.Memo

	// Registry counters, shared by every engine on one telemetry set (nil,
	// so no-ops, when telemetry is off).  Each degraded query books exactly
	// one of the interrupt guard's three reasons: its own QueryTimeout, the
	// batch context's deadline, or outright cancellation.
	batches   *telemetry.Counter
	queries   *telemetry.Counter
	timeouts  *telemetry.Counter
	deadlines *telemetry.Counter
	canceled  *telemetry.Counter
}

// New builds an engine.  One engine serves every axiom set: each query is
// answered under its own Axioms (its validity window) exactly as on the
// sequential tester, the proof memo keys by axiom-set identity, and DFAs
// key by alphabet, so windows with equal alphabets share compiled DFAs.
func New(opts Options) *Engine {
	if opts.Workers < 1 {
		opts.Workers = 1
	}
	tel := opts.Telemetry
	dfas := opts.DFACache
	if dfas == nil {
		dfas = automata.NewSharedCache(0, 0).SetTelemetry(tel)
	}
	memo := opts.Memo
	if memo == nil {
		memo = core.NewMemo(0, 0, tel)
	}
	return &Engine{
		opts:      opts,
		pool:      parallel.NewPool(opts.Workers).SetTelemetry(tel),
		dfas:      dfas,
		memo:      memo,
		batches:   tel.Counter("engine.batches"),
		queries:   tel.Counter("engine.queries"),
		timeouts:  tel.Counter("engine.degraded.query_timeout"),
		deadlines: tel.Counter("engine.degraded.request_deadline"),
		canceled:  tel.Counter("engine.degraded.canceled"),
	}
}

// Workers returns the engine's pool width.
func (e *Engine) Workers() int { return e.opts.Workers }

// DFACache exposes the DFA cache the engine uses, borrowed or private.
func (e *Engine) DFACache() *automata.SharedCache { return e.dfas }

// interruptGuard is one worker's prover interrupt hook: it trips on batch
// cancellation, on the batch context's own deadline (a server's per-request
// deadline), or on the running query's timeout — and records which, so the
// degraded outcome can say why.
type interruptGuard struct {
	ctx      context.Context
	deadline time.Time // zero when no per-query timeout
	timedOut bool      // the per-query timeout expired
	expired  bool      // the batch context's deadline passed
	canceled bool      // the batch context was canceled outright
}

// tripped is polled by the prover mid-search (prover.Options.Interrupt).
func (g *interruptGuard) tripped() bool {
	if g.canceled || g.timedOut || g.expired {
		return true
	}
	select {
	case <-g.ctx.Done():
		if errors.Is(g.ctx.Err(), context.DeadlineExceeded) {
			g.expired = true
		} else {
			g.canceled = true
		}
		return true
	default:
	}
	if !g.deadline.IsZero() && !time.Now().Before(g.deadline) {
		g.timedOut = true
		return true
	}
	return false
}

// arm resets the guard for the next query.
func (g *interruptGuard) arm(timeout time.Duration) {
	g.timedOut = false
	g.expired = false
	g.canceled = false
	if timeout > 0 {
		g.deadline = time.Now().Add(timeout)
	} else {
		g.deadline = time.Time{}
	}
}

// Batch answers every query, fanning the slice across the pool, under the
// engine's own Telemetry (see BatchTimeout).  The
// result slice is index-aligned with queries — results[i] answers
// queries[i] regardless of which worker ran it or in what order — and the
// verdicts are those the sequential Tester would produce, provided budgets
// do not bind (a query interrupted by ctx or QueryTimeout degrades to
// Maybe, the sound direction).  Queries not yet started when ctx is
// canceled are answered Maybe without searching.
func (e *Engine) Batch(ctx context.Context, queries []core.Query) []core.Outcome {
	return e.BatchTimeout(ctx, queries, e.opts.QueryTimeout, nil)
}

// BatchTimeout is Batch with a per-call override of the per-query timeout
// (perQuery <= 0 disables it for this call).  A server uses this to honor a
// client-chosen budget without rebuilding the engine; the warm caches are
// shared either way.  A deadline on ctx bounds the whole batch: queries
// still searching when it passes degrade to Maybe with a deadline reason,
// exactly like a per-query timeout (and unlike an outright cancellation).
//
// set is the batch's Set: its trace and parent place the batch in its
// caller's span tree (a served request's retaining trace under serve.batch,
// a CLI phase's stream under pipeline.phase), and its trace notes each
// degraded query.  Nil means the engine's own Telemetry.  Each chunk of
// the batch is one engine.worker span under set.Parent(), and its tester
// and provers report through that span's Set, booking into the engine's
// registry.
func (e *Engine) BatchTimeout(ctx context.Context, queries []core.Query, perQuery time.Duration, set *telemetry.Set) []core.Outcome {
	if ctx == nil {
		ctx = context.Background()
	}
	e.batches.Add(1)
	e.queries.Add(int64(len(queries)))
	results := make([]core.Outcome, len(queries))
	if set == nil {
		set = e.opts.Telemetry
	}
	rt := set.Trace()
	e.pool.ForEachChunk(len(queries), func(lo, hi int) {
		ws := rt.StartSpan("engine.worker", set.Parent())
		guard := &interruptGuard{ctx: ctx}
		// Default budgets; each worker's provers report through the Set of
		// its engine.worker span.
		tester := core.NewTester(nil, prover.Options{
			DFACache:  e.dfas,
			Interrupt: guard.tripped,
			Telemetry: telemetry.New(e.opts.Telemetry.Metrics(), rt).Under(ws.ID()),
		}).SetProofMemo(e.memo)
		tester.VerifyProofs = e.opts.VerifyProofs
		for i := lo; i < hi; i++ {
			results[i] = e.runOne(tester, guard, rt, queries[i], perQuery)
		}
		ws.End(telemetry.Int("queries", hi-lo))
	})
	return results
}

// degrade books one query's degradation under reason — on the engine's
// split counters and on the batch trace's degradation profile (which, on a
// served request's trace, is what marks the request for the flight
// recorder).
func (e *Engine) degrade(rt *telemetry.RequestTrace, reason telemetry.DegradeReason) {
	switch reason {
	case telemetry.DegradeQueryTimeout:
		e.timeouts.Add(1)
	case telemetry.DegradeRequestDeadline:
		e.deadlines.Add(1)
	case telemetry.DegradeCanceled:
		e.canceled.Add(1)
	}
	rt.NoteDegraded(reason)
}

// runOne answers one query on the worker's tester, degrading to Maybe with
// an explanatory reason, noted on the batch trace rt, when the guard trips.
func (e *Engine) runOne(tester *core.Tester, guard *interruptGuard, rt *telemetry.RequestTrace, q core.Query, perQuery time.Duration) core.Outcome {
	guard.arm(perQuery)
	if guard.tripped() {
		switch {
		case guard.canceled:
			e.degrade(rt, telemetry.DegradeCanceled)
			return core.Outcome{
				Result: core.Maybe,
				Kind:   core.Classify(q.S, q.T),
				Reason: fmt.Sprintf("batch canceled before query ran (%v); dependence assumed", guard.ctx.Err()),
			}
		case guard.expired:
			e.degrade(rt, telemetry.DegradeRequestDeadline)
			return core.Outcome{
				Result: core.Maybe,
				Kind:   core.Classify(q.S, q.T),
				Reason: "request deadline expired before query ran; dependence assumed",
			}
		}
	}
	out := tester.DepTest(q)
	// A guard trip can only have weakened the answer toward Maybe (the
	// prover maps interrupts to Exhausted); make the reason say why.  A
	// verdict reached before the trip stands untouched, and so does the
	// Maybe of a query without an axiom set, which never searched.
	if out.Result == core.Maybe && q.Axioms != nil {
		switch {
		case guard.canceled:
			e.degrade(rt, telemetry.DegradeCanceled)
			out.Reason = fmt.Sprintf("batch canceled mid-search (%v); dependence assumed", guard.ctx.Err())
		case guard.expired:
			e.degrade(rt, telemetry.DegradeRequestDeadline)
			out.Reason = "request deadline expired mid-search; dependence assumed"
		case guard.timedOut:
			e.degrade(rt, telemetry.DegradeQueryTimeout)
			out.Reason = fmt.Sprintf("query timeout (%v) exhausted the search; dependence assumed", perQuery)
		}
	}
	return out
}
