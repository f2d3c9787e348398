package scenario

import (
	"context"

	"repro/internal/analysis"
	"repro/internal/heap"
	"repro/internal/lang"
)

// minimizeSpec greedily shrinks a diverging spec: it repeatedly tries to
// delete one statement (top-level or loop-body) and keeps any deletion that
// still reproduces the divergence.  The failing query line's labels are
// never deleted.  Returns the shrunk spec and whether any shrinking
// happened; the original spec is untouched.
func (f *Farm) minimizeSpec(fam *Family, sp *progSpec, q QueryLine, g *heap.Graph, kind string) (*progSpec, bool) {
	cur := sp.clone()
	if !f.reproduces(fam, cur, q, g, kind) {
		// The divergence does not reproduce in isolation (e.g. it needed
		// the serve side); report the program as generated.
		return nil, false
	}
	shrunk := false
	for {
		improved := false
		for _, cand := range cur.deletions(q) {
			if f.reproduces(fam, cand, q, g, kind) {
				cur = cand
				improved, shrunk = true, true
				break
			}
		}
		if !improved {
			return cur, shrunk
		}
	}
}

// clone deep-copies the spec.
func (sp *progSpec) clone() *progSpec {
	c := *sp
	c.stmts = cloneStmts(sp.stmts)
	return &c
}

func cloneStmts(stmts []specStmt) []specStmt {
	out := make([]specStmt, len(stmts))
	for i, s := range stmts {
		out[i] = s
		if s.Body != nil {
			out[i].Body = cloneStmts(s.Body)
		}
	}
	return out
}

// protects reports whether the statement carries one of the query's labels.
func (q QueryLine) protects(s specStmt) bool {
	if s.Label != "" && (s.Label == q.A || s.Label == q.B) {
		return true
	}
	for _, b := range s.Body {
		if q.protects(b) {
			return true
		}
	}
	return false
}

// deletions enumerates every spec obtained by deleting one deletable
// statement: any top-level statement or loop-body statement not carrying
// the query's labels.
func (sp *progSpec) deletions(q QueryLine) []*progSpec {
	var out []*progSpec
	for i, s := range sp.stmts {
		if !q.protects(s) {
			c := sp.clone()
			c.stmts = append(c.stmts[:i:i], c.stmts[i+1:]...)
			out = append(out, c)
		}
		if s.Kind != stLoop {
			continue
		}
		for j, b := range s.Body {
			if q.protects(b) {
				continue
			}
			c := sp.clone()
			body := c.stmts[i].Body
			c.stmts[i].Body = append(body[:j:j], body[j+1:]...)
			out = append(out, c)
		}
	}
	return out
}

// reproduces re-runs the divergence check on a candidate spec.
func (f *Farm) reproduces(fam *Family, sp *progSpec, q QueryLine, g *heap.Graph, kind string) bool {
	src := sp.Render()
	prog, err := lang.Parse(src)
	if err != nil {
		return false
	}
	if kind == KindExecError {
		_, execErr := oracleSweepAll(prog, fam, sp.nInts, g)
		return execErr != nil
	}
	res, err := analysis.Analyze(prog, "scenario", analysis.Options{})
	if err != nil {
		return false
	}
	qs, err := res.QueriesFor(q.Mode, q.A, q.B)
	if err != nil || len(qs) == 0 {
		return false
	}
	if !f.cfg.ForceNo {
		outs := f.eng.Batch(context.Background(), qs)
		if lineVerdict(outs) != "no" {
			return false
		}
	}
	runs, execErr := oracleSweepAll(prog, fam, sp.nInts, g)
	if execErr != nil {
		return false
	}
	for _, r := range runs {
		if hit, _ := lineConflict(r.Trace, q); hit {
			return true
		}
	}
	return false
}
