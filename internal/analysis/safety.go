package analysis

import (
	"slices"

	"repro/internal/lang"
)

// nullness is handle safety's lattice for one pointer variable.
type nullness uint8

const (
	nullAbsent      nullness = iota // not declared on this path
	nullValid                       // unknown but assumed usable (parameters, call results)
	nullUninit                      // declared, never assigned
	nullNil                         // definitely NULL
	nullNonNil                      // definitely not NULL
	nullMaybe                       // possibly NULL
	nullMaybeUninit                 // initialized on some paths only
)

// origin is where a variable's value came from: the declaration (name
// is the variable), a NULL assignment, or a load (name is the field).  The
// kind follows from the nullness it explains (see Hazard.OriginNote); the
// zero origin is unknown.
type origin struct {
	pos  lang.Pos
	name string
}

// handleFact is one pointer variable's entry in handle safety's column.
// It holds no pointers, so cloning and merging columns costs the garbage
// collector nothing.
type handleFact struct {
	// via has the bit (analyzer.fieldBit) of every pointer field traversed
	// to reach the value.
	via uint64
	// stale numbers, from 1, the analyzer's update that rewrote a field on
	// via after the value was computed; 0 while the handle is fresh.
	stale int32
	// origin numbers, from 1, the analyzer's origin of the value; 0 when
	// unknown.
	origin int32
	null   nullness
}

// joinFacts merges the columns of two paths into s, reusing their storage:
// the merged paths' states are dead to the walk after a join.  A path that
// a return or a while (1) ended contributes nothing.
func (s *state) joinFacts(a, b *state) {
	switch {
	case a.dead && b.dead:
		s.dead = true
	case a.dead:
		s.facts = b.facts
	case b.dead:
		s.facts = a.facts
	default:
		s.facts = a.facts
		for i := range s.facts {
			s.facts[i] = joinFact(a.facts[i], b.facts[i])
		}
	}
}

// carryStale merges into a loop head's column what one pass over the body
// leaves on the paths to the handles: the fields they were reached through
// and the updates that staled them.  Nullness stays as widenFacts left it.
// It reports whether a handle fresh at the head became stale.
func (s *state) carryStale(after *state) bool {
	if s.dead || after.dead {
		return false
	}
	staled := false
	for i := range s.facts {
		f, g := &s.facts[i], after.facts[i]
		if f.null == nullAbsent || g.null == nullAbsent {
			continue
		}
		f.via |= g.via
		if f.stale == 0 && g.stale != 0 {
			f.stale = g.stale
			staled = true
		}
	}
	return staled
}

// joinFact merges one variable's facts at a control-flow merge.  The left
// side's origin and staleness win where both have one.
func joinFact(a, b handleFact) handleFact {
	switch {
	case a.null == nullAbsent:
		return b
	case b.null == nullAbsent:
		return a
	}
	out := a
	out.null = joinNull(a.null, b.null)
	if out.null != a.null {
		out.origin = b.origin
		if out.null != b.null {
			out.origin = 0
		}
	}
	out.via |= b.via
	if out.stale == 0 {
		out.stale = b.stale
	}
	return out
}

func joinNull(a, b nullness) nullness {
	switch {
	case a == b:
		return a
	case a == nullUninit || b == nullUninit || a == nullMaybeUninit || b == nullMaybeUninit:
		return nullMaybeUninit
	case (a == nullValid || a == nullNonNil) && (b == nullValid || b == nullNonNil):
		return nullValid
	}
	return nullMaybe
}

// fieldBit returns field's bit in a via set.  Pointer fields are numbered
// program-wide by name; names past the 63rd share the last bit, which can
// only stale a handle too eagerly.  "*" (an opaque call's update) is every
// field.
func (a *analyzer) fieldBit(field string) uint64 {
	if field == "*" {
		return ^uint64(0)
	}
	switch i := slices.Index(a.ptrFields, field); {
	case i < 0:
		return 0
	case i >= 63:
		return 1 << 63
	default:
		return 1 << i
	}
}

// numberFields lists the program's pointer field names for fieldBit.
func (a *analyzer) numberFields() {
	n := 0
	for _, s := range a.prog.Structs {
		n += len(s.Fields)
	}
	a.ptrFields = make([]string, 0, n)
	for _, s := range a.prog.Structs {
		for _, f := range s.Fields {
			if f.Type.IsPointerToStruct() && !slices.Contains(a.ptrFields, f.Name) {
				a.ptrFields = append(a.ptrFields, f.Name)
			}
		}
	}
}

// newOrigin numbers a value's origin for handleFact.origin.
func (a *analyzer) newOrigin(pos lang.Pos, name string) int32 {
	a.origins = append(a.origins, origin{pos: pos, name: name})
	return int32(len(a.origins))
}

// evalFact abstracts the value a pointer assignment stores.
func (a *analyzer) evalFact(st *state, rhs lang.Expr) handleFact {
	switch r := rhs.(type) {
	case *lang.MallocExpr, *lang.AddrExpr:
		return handleFact{null: nullNonNil}
	case *lang.NullLit:
		return handleFact{null: nullNil, origin: a.newOrigin(r.Pos, "")}
	case *lang.Ident:
		if c, ok := a.colID[r.Name]; ok && st.facts[c].null != nullAbsent {
			return st.facts[c]
		}
	case *lang.FieldAccess:
		// A pointer loaded from the heap may be the structure's NULL
		// terminator, and it is reached through the base's fields too.
		f := handleFact{null: nullMaybe, origin: a.newOrigin(r.Pos, r.Field), via: a.fieldBit(r.Field)}
		if c, ok := a.colID[r.Base]; ok {
			f.via |= st.facts[c].via
		}
		return f
	}
	return handleFact{null: nullValid}
}

// assignFact rebinds column c's entry.
func (a *analyzer) assignFact(st *state, c int, rhs lang.Expr) {
	if !st.dead {
		st.facts[c] = a.evalFact(st, rhs)
	}
}

// escape notes &v: whatever receives the address may initialize v.
func (a *analyzer) escape(st *state, v string) {
	if c, ok := a.colID[v]; ok && !st.dead {
		if f := &st.facts[c]; f.null == nullUninit || f.null == nullMaybeUninit {
			f.null = nullValid
		}
	}
}

// checkDeref records the hazards of dereferencing v (column c, -1 for
// none) at pos, then assumes the handle usable so each bad value is
// reported once.
func (a *analyzer) checkDeref(st *state, v string, c int, pos lang.Pos) {
	if c < 0 || st.dead || st.facts[c].null == nullAbsent {
		return
	}
	f := &st.facts[c]
	kind := DerefStale
	switch f.null {
	case nullUninit:
		kind = DerefUninit
	case nullMaybeUninit:
		kind = DerefMaybeUninit
	case nullNil:
		kind = DerefNil
	case nullMaybe:
		kind = DerefMaybeNil
	}
	if kind != DerefStale {
		if a.record {
			h := Hazard{Pos: pos, Var: v, Kind: kind}
			if f.origin > 0 {
				h.origin = a.origins[f.origin-1]
			}
			a.res.Hazards = append(a.res.Hazards, h)
		}
		f.null, f.origin = nullValid, 0
	}
	if f.stale > 0 {
		if a.record {
			use := a.updates[f.stale-1]
			_, use.Guards = a.guardSets()
			a.res.Hazards = append(a.res.Hazards, Hazard{Pos: pos, Var: v, Kind: DerefStale, Stale: &use})
		}
		f.stale = 0
	}
}

// markStale stales every handle reached through field, save the one the
// update is made through (-1: none).
func (a *analyzer) markStale(st *state, field string, site lang.Pos, through int) {
	if st.dead {
		return
	}
	bit := a.fieldBit(field)
	update := int32(0)
	for c := range st.facts {
		f := &st.facts[c]
		if c == through || f.stale != 0 || f.via&bit == 0 {
			continue
		}
		if update == 0 {
			_, guards := a.guardSets()
			a.updates = append(a.updates, StaleUse{Field: field, Site: site, SiteGuards: guards})
			update = int32(len(a.updates))
		}
		f.stale = update
	}
}

// widenFacts forgets, at a loop head, everything known about the variables
// the body may assign.
func (a *analyzer) widenFacts(st *state, lp *Loop) {
	if st.dead {
		return
	}
	for v := range lp.Written {
		if c, ok := a.colID[v]; ok {
			st.facts[c] = handleFact{null: nullValid}
		}
	}
}

// refine narrows the column with what cond establishes when it evaluates
// to want.
func (a *analyzer) refine(st *state, cond lang.Expr, want bool) {
	if st.dead {
		return
	}
	switch c := cond.(type) {
	case *lang.Ident:
		a.setNull(st, c.Name, want)
	case *lang.UnaryExpr:
		if c.Op == "!" {
			a.refine(st, c.X, !want)
		}
	case *lang.BinaryExpr:
		switch c.Op {
		case "&&":
			if want {
				a.refine(st, c.L, true)
				a.refine(st, c.R, true)
			}
		case "||":
			if !want {
				a.refine(st, c.L, false)
				a.refine(st, c.R, false)
			}
		case "==", "!=":
			if v, ok := nullComparand(c); ok {
				a.setNull(st, v, (c.Op == "!=") == want)
			}
		}
	}
}

// setNull records that v is (nonNil) or is not a usable pointer.
func (a *analyzer) setNull(st *state, v string, nonNil bool) {
	c, ok := a.colID[v]
	if !ok || st.facts[c].null == nullAbsent {
		return
	}
	st.facts[c].null, st.facts[c].origin = nullNil, 0
	if nonNil {
		st.facts[c].null = nullNonNil
	}
}

// nullComparand matches a comparison of a variable with NULL, either way
// round, and returns the variable.
func nullComparand(c *lang.BinaryExpr) (string, bool) {
	if id, ok := c.L.(*lang.Ident); ok {
		if _, isNull := c.R.(*lang.NullLit); isNull {
			return id.Name, true
		}
	}
	if id, ok := c.R.(*lang.Ident); ok {
		if _, isNull := c.L.(*lang.NullLit); isNull {
			return id.Name, true
		}
	}
	return "", false
}
