package exec

import (
	"fmt"

	"repro/internal/axiom"
	"repro/internal/core"
	"repro/internal/pathexpr"
	"repro/internal/wire"
)

// BuildRawQueries turns wire raw queries into core ones against the given
// axiom set, parsing every path.  Paths parse over the set's field
// alphabet so single-letter field names concatenate the same way they do in
// axiom text; an empty path means ε (the access is through the handle
// itself).  The pool's Queries builds a raw request's queries with it.
func BuildRawQueries(ax *axiom.Set, raws []wire.RawQuery) ([]core.Query, error) {
	fields := ax.Fields()
	out := make([]core.Query, len(raws))
	for i, rq := range raws {
		sp, err := parseRawPath(rq.SPath, fields)
		if err != nil {
			return nil, fmt.Errorf("raw[%d].s_path: %w", i, err)
		}
		tp, err := parseRawPath(rq.TPath, fields)
		if err != nil {
			return nil, fmt.Errorf("raw[%d].t_path: %w", i, err)
		}
		rel, err := parseRelation(rq)
		if err != nil {
			return nil, fmt.Errorf("raw[%d]: %w", i, err)
		}
		out[i] = core.Query{
			Axioms: ax,
			S: core.Access{
				Handle:  rq.SHandle,
				Path:    sp,
				Field:   rq.SField,
				IsWrite: rq.SWrite,
			},
			T: core.Access{
				Handle:  rq.THandle,
				Path:    tp,
				Field:   rq.TField,
				IsWrite: rq.TWrite,
			},
			Relation: rel,
		}
	}
	return out, nil
}

// parseRawPath parses one raw path text over a set's field alphabet.
func parseRawPath(src string, fields []string) (pathexpr.Expr, error) {
	if src == "" {
		src = "eps"
	}
	return pathexpr.ParseAlphabet(src, fields)
}

// parseRelation maps the wire relation to core.HandleRelation, defaulting
// by handle-name equality when unset.
func parseRelation(rq wire.RawQuery) (core.HandleRelation, error) {
	switch rq.Relation {
	case "same":
		return core.SameHandle, nil
	case "distinct":
		return core.DistinctHandles, nil
	case "unknown":
		return core.UnknownHandles, nil
	case "":
		if rq.SHandle == rq.THandle {
			return core.SameHandle, nil
		}
		return core.UnknownHandles, nil
	}
	return 0, fmt.Errorf("relation %q: want \"same\", \"distinct\", \"unknown\", or empty", rq.Relation)
}

// renderRawQuery renders one raw query the way QueryResult.Query echoes it.
func renderRawQuery(rq wire.RawQuery) string {
	rel := rq.Relation
	if rel == "" {
		if rq.SHandle == rq.THandle {
			rel = "same"
		} else {
			rel = "unknown"
		}
	}
	return "raw " + rq.SHandle + "." + orEps(rq.SPath) + "->" + rq.SField +
		" / " + rq.THandle + "." + orEps(rq.TPath) + "->" + rq.TField + " (" + rel + ")"
}

func orEps(p string) string {
	if p == "" {
		return "eps"
	}
	return p
}
