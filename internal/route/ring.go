// Package route is the routing tier of the query plane: a consistent-hash
// ring that shards axiom sets across aptserved backends, and health-checked
// forwarding with hedged retries for tail latency.  The membership is fixed
// when the router starts.
//
// Sharding works because the paper's dependence test is a pure function of
// (axiom set, goal): any backend computes the same verdicts, so placement
// is free to optimize purely for cache warmth.  Routing every request for
// one axiom set to one backend keeps that backend's DFA cache and proof
// memo hot for its shard — the "compile-server at scale" architecture the
// ROADMAP names — and the consistent ring keeps placement stable across
// restarts with a different membership (only the moved shards change
// owners).
//
// Identity on the ring is axiom.Set.Fingerprint64, never Set.ID: the
// router and its backends are separate processes, and the fingerprint is
// the only identity they agree on.
package route

import (
	"sort"
	"strconv"

	"repro/internal/strhash"
)

// vnodesPerBackend is the virtual-node count per backend address.  64
// vnodes keep the load split across a handful of backends within a few
// percent of even while keeping the ring trivially cheap to build.
const vnodesPerBackend = 64

// Ring is an immutable consistent-hash ring over backend addresses.
// Lookups binary-search the sorted vnode ring.
type Ring struct {
	vnodes  []vnode
	members int // distinct addresses
}

type vnode struct {
	hash uint64
	addr string
}

// NewRing builds a ring over the addresses (deduplicated; order does not
// matter — placement depends only on the membership set).
func NewRing(addrs []string) *Ring {
	seen := make(map[string]bool, len(addrs))
	r := &Ring{}
	for _, a := range addrs {
		if a == "" || seen[a] {
			continue
		}
		seen[a] = true
		r.members++
		for i := 0; i < vnodesPerBackend; i++ {
			r.vnodes = append(r.vnodes, vnode{hash: mix64(strhash.FNV64a(a + "#" + strconv.Itoa(i))), addr: a})
		}
	}
	sort.Slice(r.vnodes, func(i, j int) bool {
		if r.vnodes[i].hash != r.vnodes[j].hash {
			return r.vnodes[i].hash < r.vnodes[j].hash
		}
		return r.vnodes[i].addr < r.vnodes[j].addr
	})
	return r
}

// Owner returns the backend owning the fingerprint (the first vnode at or
// after the mixed fingerprint, wrapping), or "" on an empty ring.
func (r *Ring) Owner(fp uint64) string {
	if len(r.vnodes) == 0 {
		return ""
	}
	return r.vnodes[r.search(fp)].addr
}

// Sequence returns the distinct backends in ring-walk order starting at
// the fingerprint's owner.  Element 0 is the owner; the rest are the
// hedge/failover order for that shard.
func (r *Ring) Sequence(fp uint64) []string {
	if len(r.vnodes) == 0 {
		return nil
	}
	out := make([]string, 0, r.members)
	seen := make(map[string]bool, r.members)
	for i, n := r.search(fp), 0; n < len(r.vnodes); i, n = (i+1)%len(r.vnodes), n+1 {
		if a := r.vnodes[i].addr; !seen[a] {
			seen[a] = true
			out = append(out, a)
			if len(out) == r.members {
				break
			}
		}
	}
	return out
}

// search returns the index of the first vnode at or after the mixed
// fingerprint, wrapping to 0.
func (r *Ring) search(fp uint64) int {
	h := mix64(fp)
	i := sort.Search(len(r.vnodes), func(i int) bool { return r.vnodes[i].hash >= h })
	if i == len(r.vnodes) {
		i = 0
	}
	return i
}

// mix64 is the splitmix64 finalizer: ring position must not correlate with
// the structure of an FNV hash (nearby inputs hash to nearby FNV values
// more often than ideal), so vnode hashes and lookups alike pass through a
// full-avalanche mix.  Unmixed vnodes of two addresses differing in a few
// digits (loopback ports) cluster, and one backend of such a pair can own
// under 1% of the keyspace.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
