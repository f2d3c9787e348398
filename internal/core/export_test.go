package core

import (
	"fmt"
	"sort"
	"strings"
)

// DumpMemo renders the memo's completed entries, one sorted block per goal:
// the axiom-set ID and goal key, the proof's Result and Theorem, and its
// rendered derivation.  Keys stay interned IDs, so two dumps compare equal
// only within one process's interner.
func DumpMemo(m *Memo) string {
	var blocks []string
	for i := range m.shards {
		sh := &m.shards[i]
		sh.mu.Lock()
		for k, e := range sh.m {
			<-e.done
			p := e.proof
			blocks = append(blocks, fmt.Sprintf("goal ax=%d form=%d a=%d b=%d: %v %s\n%s",
				k.ax, k.goal.Form, k.goal.A, k.goal.B, p.Result, p.Theorem, p.Render()))
		}
		sh.mu.Unlock()
	}
	sort.Strings(blocks)
	return strings.Join(blocks, "\n")
}
