//go:build !race

package exec

import (
	"testing"

	"repro/internal/wire"
)

// warmResolveAllocations fails unless resolving req through a warm table —
// encoding its key into a recycled buffer and finding the stored Program —
// allocates nothing.
func warmResolveAllocations(t *testing.T, req *wire.BatchRequest) {
	t.Helper()
	p := NewPool(PoolConfig{Workers: 1}, nil)
	if _, _, err := p.Queries(req, 4096, nil); err != nil {
		t.Fatal(err)
	}
	if got := testing.AllocsPerRun(200, func() {
		if _, built, err := p.Queries(req, 4096, nil); err != nil || built != 0 {
			t.Fatalf("built %d, error %v; want a hit", built, err)
		}
	}); got > 0 {
		t.Errorf("a warm Queries allocates %.1f per call, want 0", got)
	}
}

// TestRawResolveAllocations: a raw-mode request through a warm table
// allocates nothing.  Gated out under the race detector, whose
// instrumentation adds allocations of its own.
func TestRawResolveAllocations(t *testing.T) { warmResolveAllocations(t, rawRequest(t)) }

// TestProgramResolveAllocations: a program-mode request through a warm
// table allocates nothing.  Gated out under the race detector, like
// TestRawResolveAllocations.
func TestProgramResolveAllocations(t *testing.T) { warmResolveAllocations(t, walkRequest(t)) }
