package route

import (
	"fmt"
	"math/rand/v2"
	"testing"
)

func fps(n int) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		out[i] = uint64(i)*2654435761 + 12345
	}
	return out
}

// TestRingPlacementIsDeterministic: ownership is a pure function of the
// membership set — construction order must not matter, and repeated lookups
// agree.
func TestRingPlacementIsDeterministic(t *testing.T) {
	a := NewRing([]string{"http://x:1", "http://y:2", "http://z:3"})
	b := NewRing([]string{"http://z:3", "http://x:1", "http://y:2", "http://x:1"})
	for _, fp := range fps(500) {
		if a.Owner(fp) != b.Owner(fp) {
			t.Fatalf("fp %#x: owner differs across construction orders: %s vs %s", fp, a.Owner(fp), b.Owner(fp))
		}
	}
}

// TestRingSequenceCoversAllBackends: the failover walk starts at the owner
// and visits every member exactly once.
func TestRingSequenceCoversAllBackends(t *testing.T) {
	r := NewRing([]string{"http://x:1", "http://y:2", "http://z:3", "http://w:4"})
	for _, fp := range fps(100) {
		seq := r.Sequence(fp)
		if len(seq) != 4 {
			t.Fatalf("fp %#x: sequence %v, want all 4 members", fp, seq)
		}
		if seq[0] != r.Owner(fp) {
			t.Fatalf("fp %#x: sequence starts at %s, owner is %s", fp, seq[0], r.Owner(fp))
		}
		seen := map[string]bool{}
		for _, a := range seq {
			if seen[a] {
				t.Fatalf("fp %#x: duplicate %s in sequence %v", fp, a, seq)
			}
			seen[a] = true
		}
	}
}

// TestRingBalance: with vnodes, no backend of four owns a wildly outsized
// share of a large fingerprint population.
func TestRingBalance(t *testing.T) {
	addrs := []string{"http://a:1", "http://b:2", "http://c:3", "http://d:4"}
	r := NewRing(addrs)
	counts := map[string]int{}
	population := fps(4000)
	for _, fp := range population {
		counts[r.Owner(fp)]++
	}
	for _, a := range addrs {
		share := float64(counts[a]) / float64(len(population))
		if share < 0.10 || share > 0.45 {
			t.Errorf("%s owns %.1f%% of the keyspace; want a roughly even split (counts %v)", a, share*100, counts)
		}
	}
}

// TestRingPairBalance: two backends split the keyspace roughly evenly,
// whatever their loopback ports — the shape of every two-backend test
// cluster.  With unmixed vnode hashes, addresses differing in a few digits
// cluster on the ring: 127.0.0.1:43891 next to :42713 owned 0.15% of keys,
// and :35278 next to :11403 0.29%.  Seeded, so a failure names its pair.
func TestRingPairBalance(t *testing.T) {
	rng := rand.New(rand.NewPCG(38, 1))
	keys := make([]uint64, 4000)
	for i := range keys {
		keys[i] = rng.Uint64()
	}
	pairs := [][2]int{{43891, 42713}, {35278, 11403}}
	for len(pairs) < 1002 {
		a, b := 1024+rng.IntN(64512), 1024+rng.IntN(64512)
		if a != b {
			pairs = append(pairs, [2]int{a, b})
		}
	}
	worst := 1.0
	for _, pr := range pairs {
		a, b := fmt.Sprintf("http://127.0.0.1:%d", pr[0]), fmt.Sprintf("http://127.0.0.1:%d", pr[1])
		r := NewRing([]string{a, b})
		owned := 0
		for _, fp := range keys {
			if r.Owner(fp) == a {
				owned++
			}
		}
		share := min(owned, len(keys)-owned)
		frac := float64(share) / float64(len(keys))
		worst = min(worst, frac)
		if frac < 0.25 {
			t.Errorf("ports %d and %d: the minority backend owns %.2f%% of keys, want >= 25%%", pr[0], pr[1], frac*100)
		}
	}
	t.Logf("worst minority share over %d pairs: %.1f%%", len(pairs), worst*100)
}

// TestRingMinimalDisruption is consistent hashing's defining property: a
// membership change moves only the shards whose owner actually changed —
// roughly 1/n of the keyspace when one of n backends joins — and every
// other fingerprint keeps its owner.
func TestRingMinimalDisruption(t *testing.T) {
	old := NewRing([]string{"http://a:1", "http://b:2", "http://c:3"})
	grown := NewRing([]string{"http://a:1", "http://b:2", "http://c:3", "http://d:4"})
	population := fps(4000)
	moves := 0
	for _, fp := range population {
		from, to := old.Owner(fp), grown.Owner(fp)
		if from == to {
			continue
		}
		moves++
		// Every move must target the new backend — a join never shuffles
		// shards among the existing members.
		if to != "http://d:4" {
			t.Errorf("fp %#x moved %s → %s on a join of d; only moves to d are justified", fp, from, to)
		}
	}
	if moves == 0 {
		t.Fatal("growing the ring moved nothing; the new backend owns no shards")
	}
	// And the disruption is bounded: ~1/4 of the keyspace, generously < 1/2.
	if frac := float64(moves) / float64(len(population)); frac > 0.5 {
		t.Errorf("join moved %.1f%% of the keyspace; consistent hashing should move ~25%%", frac*100)
	}

	// Removing d again restores the original placement exactly.
	back := NewRing([]string{"http://b:2", "http://a:1", "http://c:3"})
	for _, fp := range population {
		if old.Owner(fp) != back.Owner(fp) {
			t.Fatalf("fp %#x: owner not restored after leave: %s vs %s", fp, old.Owner(fp), back.Owner(fp))
		}
	}
}

// TestEmptyRing: no members means no owner — the router answers 502, it
// does not panic.
func TestEmptyRing(t *testing.T) {
	r := NewRing(nil)
	if got := r.Owner(42); got != "" {
		t.Errorf("empty ring owner = %q, want \"\"", got)
	}
	if got := r.Sequence(42); got != nil {
		t.Errorf("empty ring sequence = %v, want nil", got)
	}
}
