//go:build !race

package exec

import "testing"

// TestRawResolveAllocations: with a warm table, resolving a raw request's
// texts allocates only the query slice it returns.  Gated out under the
// race detector, whose instrumentation adds allocations of its own.
func TestRawResolveAllocations(t *testing.T) {
	req := rawRequest(t)
	p := NewPool(PoolConfig{Workers: 1}, nil)
	if _, _, _, err := p.RawQueries(req.AxiomSetName, req.AxiomSet, req.Raw); err != nil {
		t.Fatal(err)
	}
	if got := testing.AllocsPerRun(200, func() {
		if _, _, _, err := p.RawQueries(req.AxiomSetName, req.AxiomSet, req.Raw); err != nil {
			t.Fatal(err)
		}
	}); got > 1 {
		t.Errorf("warm RawQueries allocates %.1f per call, want 1 (the []core.Query)", got)
	}
}
