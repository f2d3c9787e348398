package automata

import (
	"fmt"
	"sort"
	"strings"
)

// DumpSharedCache renders the cache's contents, one sorted line per entry:
// every DFA key with its transition table and accept set, and every
// decision key with its value.  Keys stay interned IDs, so two dumps
// compare equal only within one process's interner.
func DumpSharedCache(c *SharedCache) string {
	var lines []string
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.RLock()
		for k, d := range sh.dfas {
			lines = append(lines, fmt.Sprintf("dfa alpha=%d expr=%d trans=%v accept=%v", k.alpha, k.expr, d.trans, d.accept))
		}
		for k, v := range sh.ops {
			lines = append(lines, fmt.Sprintf("op %d alpha=%d x=%d y=%d = %v", k.op, k.alpha, k.x, k.y, v))
		}
		sh.mu.RUnlock()
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// withStateLimit lowers the cache's subset- and product-construction budget
// from DefaultStateLimit (kept when limit <= 0), so tests can blow it with
// small languages.  Call it before the first lookup.
func (c *SharedCache) withStateLimit(limit int) *SharedCache {
	if limit > 0 {
		c.limit = limit
	}
	return c
}
