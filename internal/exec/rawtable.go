package exec

import (
	"fmt"
	"strings"
	"sync"

	"repro/internal/axiom"
	"repro/internal/core"
	"repro/internal/pathexpr"
	"repro/internal/wire"
)

// Bounds of the pool's raw-text table.  A full table, or a full set's path
// map, is emptied wholesale before the next insert; a text longer than
// rawTextCap is parsed fresh on every request and never stored.
const (
	rawSetCap  = 64   // axiom-set texts held
	rawPathCap = 512  // path texts held per axiom set
	rawTextCap = 1024 // longest text stored, in bytes
)

// rawTable maps raw-mode request text to what it parses to: an axiom set's
// (name, text) pair to the parsed set and its field alphabet, and, per set,
// a path's text to its parsed expression.  Parsing is a pure function of
// the text, sets are shared read-only, and expressions are immutable, so a
// stored parse is exactly what parsing afresh would build.  The table holds
// no verdicts and no errors: a text that fails to parse is parsed again,
// and fails the same way, every time it is sent.
type rawTable struct {
	mu   sync.RWMutex
	sets map[rawKey]*rawSet
}

// rawKey is an axiom set's text as the request spelled it.
type rawKey struct{ name, text string }

// rawSet is one parsed axiom set with its field alphabet and the paths
// parsed over it.
type rawSet struct {
	ax     *axiom.Set
	fields []string

	mu    sync.RWMutex
	paths map[string]pathexpr.Expr
}

func newRawTable() *rawTable {
	return &rawTable{sets: make(map[rawKey]*rawSet)}
}

// RawQueries builds a raw-mode request's queries the way ParseSet followed
// by BuildRawQueries does, resolving the axiom-set text and every path text
// through the pool's text table.  It returns the parsed set, the queries,
// and how many of the request's texts had to be parsed (0 when all were
// already in the table).  An axiom-set error reads "axiom_set: ..." and a
// query error reads as BuildRawQueries reports it.
func (p *Pool) RawQueries(name, text string, raws []wire.RawQuery) (*axiom.Set, []core.Query, int, error) {
	rs, parsed, err := p.raw.set(name, text)
	if err != nil {
		return nil, nil, parsed, fmt.Errorf("axiom_set: %v", err)
	}
	queries, err := buildRaw(rs.ax, raws, func(src string) (pathexpr.Expr, error) {
		e, n, err := rs.path(src)
		parsed += n
		return e, err
	})
	return rs.ax, queries, parsed, err
}

// set returns the parsed axiom set for (name, text) and 1 when it had to
// be parsed, 0 when the table held it.
func (t *rawTable) set(name, text string) (*rawSet, int, error) {
	k := rawKey{name, text}
	t.mu.RLock()
	rs := t.sets[k]
	t.mu.RUnlock()
	if rs != nil {
		return rs, 0, nil
	}
	store := len(name)+len(text) <= rawTextCap
	if store {
		// A stored text is a copy, not a substring of the request body, and
		// the set is parsed from the copy, so no entry keeps a body alive.
		name, text = strings.Clone(name), strings.Clone(text)
		k = rawKey{name, text}
	}
	ax, err := axiom.ParseSet(name, text)
	if err != nil {
		return nil, 1, err
	}
	rs = &rawSet{ax: ax, fields: ax.Fields(), paths: make(map[string]pathexpr.Expr)}
	if !store {
		return rs, 1, nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if prev := t.sets[k]; prev != nil {
		return prev, 1, nil // a concurrent request stored it first
	}
	if len(t.sets) >= rawSetCap {
		t.sets = make(map[rawKey]*rawSet)
	}
	t.sets[k] = rs
	return rs, 1, nil
}

// path returns the expression src parses to over the set's alphabet, and
// 1 when it had to be parsed, 0 when the set held it.
func (rs *rawSet) path(src string) (pathexpr.Expr, int, error) {
	rs.mu.RLock()
	e, ok := rs.paths[src]
	rs.mu.RUnlock()
	if ok {
		return e, 0, nil
	}
	store := len(src) <= rawTextCap
	if store {
		src = strings.Clone(src) // as for a set's text
	}
	e, err := parseRawPath(src, rs.fields)
	if err != nil || !store {
		return e, 1, err
	}
	rs.mu.Lock()
	if len(rs.paths) >= rawPathCap {
		rs.paths = make(map[string]pathexpr.Expr)
	}
	rs.paths[src] = e
	rs.mu.Unlock()
	return e, 1, nil
}
