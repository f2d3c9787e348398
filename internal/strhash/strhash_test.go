package strhash

import (
	"hash/fnv"
	"testing"
)

// TestFNV64aMatchesStdlib pins the implementation to the reference
// FNV-1a from the standard library, so ring positions and fingerprints
// hashed through it stay put.
func TestFNV64aMatchesStdlib(t *testing.T) {
	for _, s := range []string{"", "a", "ab", "shard-key\x00with NULs", "∀p, p.next+ <> p.ε", "127.0.0.1:8080#17"} {
		ref := fnv.New64a()
		ref.Write([]byte(s))
		if got, want := FNV64a(s), ref.Sum64(); got != want {
			t.Errorf("FNV64a(%q) = %#x, want %#x", s, got, want)
		}
	}
}
