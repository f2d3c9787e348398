// Package strhash holds the 64-bit FNV-1a string hash the cluster layer
// routes through: internal/route hashes ring vnode labels and request
// fingerprints with it, and internal/axiom axiom-set fingerprints.  The
// in-process sharded caches (the proof memo, the DFA cache) key on
// interned IDs and mix them with pathexpr.Mix64 instead.
package strhash

// FNV64a returns the 64-bit FNV-1a hash of s.  Its constants are pinned by
// test against the standard library.
func FNV64a(s string) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime
	}
	return h
}
