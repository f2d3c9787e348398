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

// TestProgramResolveAllocations: with a warm table, resolving a
// program-mode request — encoding its key into a recycled buffer and
// finding the stored Program — allocates nothing.  Gated out under the
// race detector, like TestRawResolveAllocations.
func TestProgramResolveAllocations(t *testing.T) {
	req := walkRequest(t)
	p := NewPool(PoolConfig{Workers: 1}, nil)
	if _, _, err := p.ProgramQueries(req, 4096, nil); err != nil {
		t.Fatal(err)
	}
	if got := testing.AllocsPerRun(200, func() {
		if _, analyzed, err := p.ProgramQueries(req, 4096, nil); err != nil || analyzed != 0 {
			t.Fatalf("analyzed %d, error %v; want a hit", analyzed, err)
		}
	}); got > 0 {
		t.Errorf("warm ProgramQueries allocates %.1f per call, want 0", got)
	}
}
