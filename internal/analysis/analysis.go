// Package analysis implements APT's memory-reference analysis (paper §3.3):
// a flow-sensitive, intraprocedural abstract interpretation of mini-C
// functions that maintains an Access Path Matrix (APM) at every program
// point.
//
// An APM row is a handle — a fixed (but unknown) vertex of the data
// structure, created whenever a pointer variable is assigned a new value.
// An APM cell APM[h][v] is a path expression describing how the current
// value of pointer variable v was reached from handle h.  Assigning a
// pointer relative to itself (p = p->f) extends p's existing paths instead
// of creating a handle — the rule that makes loop induction variables
// analyzable.  Loop bodies are widened with Kleene stars and re-analyzed at
// the fixpoint, where a synthetic per-iteration handle is planted so that
// loop-carried queries can be phrased exactly as §5 does: iteration i
// accesses h.A, any later iteration accesses h.δ⁺A.
//
// Structural modifications (stores to pointer fields) are tracked per §3.4:
// they invalidate access paths that traverse the stored field, and
// dependence queries spanning a modification use the intersection of the
// axiom sets valid before and after — implemented as dropping every axiom
// that constrains a modified field.  A call or a store through a pointer
// (*x = …) may write any variable whose address was taken, so it gives
// every address-taken struct pointer a fresh handle.
//
// The same walk carries handle safety beside the matrix: per pointer
// variable, a nullness lattice and the pointer fields its value was reached
// through.  A destructive update of one of those fields leaves the handle
// stale.  Every hazardous dereference — a handle that is NULL, possibly
// NULL, uninitialized, or stale — is recorded as a Hazard, which lint's
// handle-safety pass renders as diagnostics.
package analysis

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/automata"
	"repro/internal/axiom"
	"repro/internal/guard"
	"repro/internal/lang"
	"repro/internal/pathexpr"
	"repro/internal/telemetry"
)

// Options configures the analysis.
type Options struct {
	// CallsModifyStructure treats every opaque call as a potential
	// structural modification of every pointer field.  The default (false)
	// assumes callees maintain the declared axioms — the paper's Figure 1
	// implicitly assumes insert() preserves list-ness.
	CallsModifyStructure bool
	// AssumeLoopInvariants models the paper's "more sophisticated analysis
	// capable of handling modifications" (the fully-parallel configuration
	// of §5): structural modifications inside a loop are assumed to
	// re-establish the axioms at each iteration boundary, so loop-carried
	// queries keep the full axiom set.
	AssumeLoopInvariants bool
	// InferTypeAxioms adds the Appendix A style inferred axioms: pointer
	// fields with different target types lead to different vertices.
	InferTypeAxioms bool
	// Telemetry receives per-function analysis spans, widening events, and
	// aggregate counters.  Nil (the default) disables instrumentation.
	Telemetry *telemetry.Set
	// DFACache holds the DFAs and inclusion decisions behind the post-loop
	// widening checks.  A caller that already keeps one (the server's engine
	// pool) lends it here so later analyses
	// start warm; inclusion is a pure function of the two paths and the
	// alphabet, so borrowing never changes a result.  Nil gives the walk a
	// private one-shard cache.
	DFACache *automata.SharedCache
}

// Access records one memory reference var->Field observed by the analysis.
type Access struct {
	Label   string
	Stmt    int // statement ordinal within the function walk
	Var     string
	Field   string
	Type    string // struct type of *var
	IsWrite bool
	// Paths holds the access path of Var at this point from each handle
	// that anchors it.
	Paths HandlePaths
	// IterDeltas holds, for each synthetic loop-iteration handle in Paths,
	// the loop's per-iteration increment for Var's anchor.
	IterDeltas HandlePaths
	// ModEpoch is the number of structural modification sites executed
	// before this access (in straight-line order).
	ModEpoch int
	// LoopModFields lists pointer fields structurally modified anywhere in
	// the loops enclosing this access (empty when not in a loop or no mods).
	LoopModFields []string
	// Guards is the conjunction of dominating branch predicates under which
	// this access executes (positive on then-edges, negated on else-edges).
	// Sound for same-execution-instance comparisons: predicate identity
	// already encodes "nothing the condition reads changed in between".
	Guards guard.Set
	// InvGuards is the subset of Guards that is loop-invariant with respect
	// to every enclosing loop — the only guards usable when the two sides
	// of a query come from different iterations (see LoopCarriedPair).
	InvGuards guard.Set
	Pos       lang.Pos
	// Loop is the innermost loop enclosing the access, nil outside loops.
	Loop *Loop
}

// Loop is one while loop of the function.
type Loop struct {
	Stmt *lang.WhileStmt
	// Written holds every variable an iteration may assign: those the
	// body assigns by name and, when the body or the condition calls a
	// function or the body stores through a pointer, every address-taken
	// struct pointer of the function.  Read-only.
	Written map[string]bool
	// writtenFields holds the fields an iteration may store to, directly
	// or in a summarized callee; unknownCalls reports a call whose writes
	// are unknown.  With Written they decide which guards are
	// loop-invariant.
	writtenFields map[string]bool
	unknownCalls  bool
}

// HazardKind classifies a hazardous dereference.
type HazardKind uint8

// Hazard kinds: the handle's nullness at the dereference, or a destructive
// update on its access path.
const (
	DerefUninit      HazardKind = iota // never initialized
	DerefMaybeUninit                   // initialized on some paths only
	DerefNil                           // definitely NULL
	DerefMaybeNil                      // possibly NULL
	DerefStale                         // a field it was reached through was rewritten
)

// Hazard is one hazardous dereference of a pointer variable.  Each is
// recorded once: the walk then assumes the handle usable, so one bad value
// is reported at its first dereference only.
type Hazard struct {
	Pos  lang.Pos
	Var  string
	Kind HazardKind
	// Stale is the update behind a DerefStale hazard, nil otherwise.
	Stale *StaleUse
	// origin is where a suspect value came from, for OriginNote.
	origin origin
}

// StaleUse is a dereference after a destructive update: Field was
// rewritten at Site under SiteGuards, and the dereference runs under
// Guards.  Both sets are loop-invariant subsets (the InvGuards rule), so a
// contradiction between them means no execution performs both, in any
// iterations.
type StaleUse struct {
	Field      string
	Site       lang.Pos
	SiteGuards guard.Set
	Guards     guard.Set
}

// OriginNote locates where a suspect value came from ("p declared here",
// "assigned NULL here", "loaded from field next here").  ok is false when
// the source is unknown, and for DerefStale.
func (h Hazard) OriginNote() (pos lang.Pos, note string, ok bool) {
	if h.origin.pos.Line == 0 {
		return lang.Pos{}, "", false
	}
	switch h.Kind {
	case DerefUninit, DerefMaybeUninit:
		note = h.origin.name + " declared here"
	case DerefNil:
		note = "assigned NULL here"
	case DerefMaybeNil:
		note = "loaded from field " + h.origin.name + " here"
	default:
		return lang.Pos{}, "", false
	}
	return h.origin.pos, note, true
}

// HandlePath is one handle's entry in a HandlePaths.
type HandlePath struct {
	Handle string
	Path   pathexpr.Expr
}

// HandlePaths maps handle names to paths as a slice sorted by handle name,
// one entry per handle.
type HandlePaths []HandlePath

// Get returns the path for handle h, if present.
func (ps HandlePaths) Get(h string) (pathexpr.Expr, bool) {
	for _, p := range ps {
		if p.Handle >= h {
			if p.Handle == h {
				return p.Path, true
			}
			break
		}
	}
	return nil, false
}

// ModSite is one structural modification: a store to a pointer field.
type ModSite struct {
	Epoch int
	Field string
	Label string
	Pos   lang.Pos
	// Loop is the innermost loop enclosing the site, nil outside loops.
	Loop *Loop
}

// Result is the analysis outcome for one function.
type Result struct {
	Fn       *lang.FuncDecl
	Accesses []Access
	Mods     []ModSite
	// Loops lists the function's while loops in source order, outer before
	// inner.
	Loops []*Loop
	// Hazards lists the hazardous dereferences in walk order.
	Hazards []Hazard
	// Axioms is the merged axiom set of every struct the function touches,
	// plus inferred type-disjointness axioms when enabled.
	Axioms *axiom.Set
	opts   Options
	// apms holds the access path matrix captured just before each labeled
	// statement, keyed by label.
	apms map[string]*APM
}

// APM returns the access path matrix captured just before the statement
// with the given label, nil when no statement carries it.
func (r *Result) APM(label string) *APM { return r.apms[label] }

// Labels returns the labels that have an APM, sorted.
func (r *Result) Labels() []string {
	out := make([]string, 0, len(r.apms))
	for l := range r.apms {
		out = append(out, l)
	}
	sort.Strings(out)
	return out
}

// APM is a snapshot of the access path matrix: rows are handles, columns
// are pointer variables.  It keeps a copy of the walk's dense cells and
// names their rows and columns.
type APM struct {
	st      state
	handles []string
	vars    []string
}

// Lookup returns the path for (handle, variable), if present.
func (m *APM) Lookup(handle, v string) (pathexpr.Expr, bool) {
	h, c := slices.Index(m.handles, handle), slices.Index(m.vars, v)
	if h < 0 || c < 0 {
		return nil, false
	}
	if p := m.st.get(h, c); p != nil {
		return p.Expr(), true
	}
	return nil, false
}

// rowUsed reports whether handle h anchors any variable.
func (m *APM) rowUsed(h int) bool {
	for v := range m.vars {
		if m.st.get(h, v) != nil {
			return true
		}
	}
	return false
}

// Handles returns the sorted names of the handles anchoring any variable.
func (m *APM) Handles() []string {
	var out []string
	for h, name := range m.handles {
		if m.rowUsed(h) {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// Vars returns the sorted names of the variables any handle anchors.
func (m *APM) Vars() []string {
	var out []string
	for v, name := range m.vars {
		if m.st.hasVar(v) {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// String renders the APM as the paper's tables do.
func (m *APM) String() string {
	vars := m.Vars()
	var b strings.Builder
	b.WriteString("APM")
	for _, v := range vars {
		fmt.Fprintf(&b, "\t%s", v)
	}
	b.WriteByte('\n')
	for _, h := range m.Handles() {
		b.WriteString(h)
		for _, v := range vars {
			b.WriteByte('\t')
			if p, ok := m.Lookup(h, v); ok {
				b.WriteString(pathexpr.Compact(p))
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// state is the in-flight abstract state: the access path matrix as one
// dense row-major slice of interned paths.  Rows are handle IDs and columns
// pointer-variable IDs, both numbered once per Analyze (see analyzer.handle
// and analyzer.numberVars); cells[h*nv+v] is the path from handle h to v's
// target, nil when absent.  Rows past the end of cells are empty, so a state grows
// only when a handle created after it is set.  Every stored node is in
// Simplify normal form, so two cells hold the same path exactly when they
// hold the same pointer.
type state struct {
	cells []*pathexpr.Node
	nv    int
	// modEpoch counts structural modification sites executed so far.
	modEpoch int
	// facts is handle safety's column: one entry per pointer variable, in
	// the matrix's column numbering.  dead marks a path that a return or a
	// while (1) ended: the statements after it still shape the matrix, the
	// column neither reads nor records anything there (and may be nil).
	facts []handleFact
	dead  bool
}

func newState(nv int) *state {
	return &state{nv: nv}
}

// rows reports the number of handle rows the state holds storage for.
func (s *state) rows() int {
	if s.nv == 0 {
		return 0
	}
	return len(s.cells) / s.nv
}

func (s *state) clone() *state {
	c := *s
	c.cells = append([]*pathexpr.Node(nil), s.cells...)
	if !s.dead {
		c.facts = slices.Clone(s.facts)
	}
	return &c
}

// get returns the cell for (handle, variable), nil when absent.
func (s *state) get(h, v int) *pathexpr.Node {
	if i := h*s.nv + v; i < len(s.cells) {
		return s.cells[i]
	}
	return nil
}

// set stores n, which must already be in normal form (a cell of some
// state, or a node from norm), at (handle, variable).
func (s *state) set(h, v int, n *pathexpr.Node) {
	i := h*s.nv + v
	if i >= len(s.cells) {
		s.cells = append(s.cells, make([]*pathexpr.Node, (h+1)*s.nv-len(s.cells))...)
	}
	s.cells[i] = n
}

// hasVar reports whether any handle anchors v.
func (s *state) hasVar(v int) bool {
	for i := v; i < len(s.cells); i += s.nv {
		if s.cells[i] != nil {
			return true
		}
	}
	return false
}

// dropVar empties v's column.
func (s *state) dropVar(v int) {
	for i := v; i < len(s.cells); i += s.nv {
		s.cells[i] = nil
	}
}

// norm interns e in Simplify normal form, the only form cells hold.
func norm(e pathexpr.Expr) *pathexpr.Node {
	return pathexpr.Intern(e).Simplified()
}

// epsNode is the interned ε path every fresh handle starts from.
var epsNode = norm(pathexpr.Eps)

// join merges two states at a control-flow merge: equal paths survive,
// differing paths join by alternation, entries present on only one side are
// dropped (their value on the other path is unknown).  Handle safety's
// column is merged in the inputs' storage, so neither is used afterwards.
func join(a, b *state) *state {
	out := newState(a.nv)
	out.cells = make([]*pathexpr.Node, min(len(a.cells), len(b.cells)))
	for i := range out.cells {
		pa, pb := a.cells[i], b.cells[i]
		switch {
		case pa == nil || pb == nil:
		case pa == pb:
			out.cells[i] = pa
		default:
			out.cells[i] = norm(pathexpr.Or(pa.Expr(), pb.Expr()))
		}
	}
	out.modEpoch = maxInt(a.modEpoch, b.modEpoch)
	out.joinFacts(a, b)
	return out
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
