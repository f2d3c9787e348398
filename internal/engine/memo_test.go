package engine

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/pathexpr"
	"repro/internal/prover"
)

// The memo tests drive core.Memo the way the engine's workers share it:
// real provers, one memo.  A test that needs a search to stay in flight
// parks it in the prover's interrupt hook, which heavyQuery's goal — well
// over one 64-call poll stride — is guaranteed to reach.

// TestMemoWaiterDoesNotInheritExhausted is the regression test for the
// poisoning bug: a waiter blocked on an in-flight search used to take
// whatever proof the searching worker published — including an Exhausted
// budget artifact from a worker with a shorter deadline.  The no-poisoning
// contract says budget artifacts are private; the waiter must run its own
// search.
func TestMemoWaiterDoesNotInheritExhausted(t *testing.T) {
	axioms := WorkloadWindows()[0]
	m := core.NewMemo(1, 0, nil)
	q := heavyQuery()
	x, y := q.S.Path, q.T.Path

	workerIn := make(chan struct{}) // closed once the worker's search is in flight
	release := make(chan struct{})  // closed to let the worker give up
	var once sync.Once
	worker := prover.New(axioms, prover.Options{Interrupt: func() bool {
		once.Do(func() { close(workerIn) })
		<-release
		return true
	}})

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if p := m.Prove(worker, axioms.ID(), prover.SameSrc, x, y); p.Result != prover.Exhausted {
			t.Errorf("worker got %v, want its own Exhausted artifact back", p.Result)
		}
	}()

	<-workerIn
	var waiterProof *prover.Proof
	wg.Add(1)
	go func() {
		defer wg.Done()
		waiterProof = m.Prove(prover.New(axioms, prover.Options{}), axioms.ID(), prover.SameSrc, x, y)
	}()

	// Whether the waiter has reached the entry yet or not, releasing the
	// worker must leave it a path to a real verdict.
	close(release)
	wg.Wait()
	if waiterProof == nil || waiterProof.Result == prover.Exhausted || waiterProof.Stats.StepsUsed == 0 {
		t.Fatalf("waiter proof = %+v, want the result of its own search", waiterProof)
	}
	if st := m.Stats(); st.Hits != 0 {
		t.Errorf("Stats().Hits = %d, want 0 (an inherited artifact must not count as a hit)", st.Hits)
	}
}

// TestMemoExhaustedNotRetainedAcrossTesters drives the same scenario
// through real provers: a tester whose proof budget exhausts immediately
// (the short-deadline worker) fails a goal, and a second tester sharing
// the memo (the long-deadline caller) must still reach the real verdict.
func TestMemoExhaustedNotRetainedAcrossTesters(t *testing.T) {
	axioms := WorkloadWindows()[0]
	memo := core.NewMemo(0, 0, nil)

	// Provably independent, but only after a search deeper than the
	// impatient tester's two-step budget.
	q := core.Query{Axioms: axioms, S: access("L.R", "val", true), T: access("L.L+", "val", true)}

	impatient := core.NewTester(axioms, prover.Options{MaxSteps: 2}).SetProofMemo(memo)
	if out := impatient.DepTest(q); out.Result != core.Maybe {
		t.Fatalf("budget-bound tester answered %v, want Maybe", out.Result)
	}
	if st := memo.Stats(); st.Entries != 0 {
		t.Fatalf("memo retained %d entries after an exhausted-only search", st.Entries)
	}

	patient := core.NewTester(axioms, prover.Options{}).SetProofMemo(memo)
	if out := patient.DepTest(q); out.Result != core.No {
		t.Fatalf("tester after exhaustion answered %v, want No (goal must not be poisoned)", out.Result)
	}
}

// TestMemoShardCapBoundsEntries: the per-shard cap drops completed entries
// (counting them as evictions) but never in-flight ones, so a long-lived
// process stays bounded without breaking single-flight.
func TestMemoShardCapBoundsEntries(t *testing.T) {
	const cap = 4
	axioms := WorkloadWindows()[0]
	ax := axioms.ID()
	m := core.NewMemo(1, cap, nil)
	plain := prover.New(axioms, prover.Options{})

	// Pin one goal in flight across the whole flood: its search parks at
	// its first interrupt poll until released, then runs to completion.
	pinned := heavyQuery()
	px, py := pinned.S.Path, pinned.T.Path
	pinnedIn := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	parked := prover.New(axioms, prover.Options{Interrupt: func() bool {
		once.Do(func() {
			close(pinnedIn)
			<-release
		})
		return false
	}})
	var wg sync.WaitGroup
	var pinnedProof *prover.Proof
	wg.Add(1)
	go func() {
		defer wg.Done()
		pinnedProof = m.Prove(parked, ax, prover.SameSrc, px, py)
	}()
	<-pinnedIn

	for i := 0; i < 10*cap; i++ {
		x := pathexpr.MustParse(fmt.Sprintf("L.R%s", strings.Repeat(".N", i)))
		m.Prove(plain, ax, prover.SameSrc, x, pathexpr.MustParse("R"))
	}
	st := m.Stats()
	if st.Entries > cap+1 { // the flood's survivors plus the pinned in-flight entry
		t.Errorf("Entries = %d after flooding a %d-cap shard, want bounded", st.Entries, cap)
	}
	if st.Evictions == 0 {
		t.Error("Evictions = 0 after flooding past the cap")
	}

	// The pinned entry survived every epoch: a second caller must join it as
	// a waiter, not start a duplicate search.
	hitsBefore := st.Hits
	duplicate := prover.New(axioms, prover.Options{Interrupt: func() bool {
		t.Error("duplicate search started for an in-flight goal: the cap evicted a live entry")
		return true
	}})
	done := make(chan *prover.Proof, 1)
	go func() { done <- m.Prove(duplicate, ax, prover.SameSrc, px, py) }()
	close(release)
	wg.Wait()
	if p := <-done; p != pinnedProof {
		t.Errorf("waiter on pinned goal got %+v, want the pinned search's proof", p)
	}
	if st := m.Stats(); st.Hits != hitsBefore+1 {
		t.Errorf("Hits = %d, want %d (the waiter shares the pinned search)", st.Hits, hitsBefore+1)
	}

	// An uncapped memo never evicts.
	u := core.NewMemo(1, 0, nil)
	for i := 0; i < 10*cap; i++ {
		x := pathexpr.MustParse(fmt.Sprintf("L%s", strings.Repeat(".N", i)))
		u.Prove(plain, ax, prover.SameSrc, x, pathexpr.MustParse("R"))
	}
	if st := u.Stats(); st.Evictions != 0 || st.Entries != 10*cap {
		t.Errorf("uncapped memo stats = %+v, want every entry retained", st)
	}
}
