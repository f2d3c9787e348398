// Package wire is the transport-neutral layer of the query plane: the JSON
// request/response vocabulary of POST /v1/batch plus the small helpers both
// sides of the wire share (JSON writers, millisecond clamping, traceparent
// echo).  Everything that talks the protocol — the serving execution stack
// (internal/serve), the cluster router (internal/route), the repository
// benchmark's client, and the scenario farm's cross-checker — depends on
// this package and on nothing above it; wire itself depends only on stdlib
// and telemetry, never on analysis or engines, so clients embed it without
// dragging the prover in.
//
// Two request shapes share the endpoint:
//
//   - Program mode: a mini-C program plus aptdep -batch query lines; the
//     server parses and analyzes the program and expands the lines.
//   - Raw mode: an axiom set (as parseable axiom lines, see axiom.Set.
//     Source) plus fully specified access-pair queries; the server skips
//     parsing/analysis and drives the engine directly.  This is the mode
//     for clients that already ran their own analysis — and for the
//     cluster differential suite, which must replay engine-level workloads
//     byte-identically through HTTP.
//
// Identity on the wire is always the axiom set's cross-process-stable
// Fingerprint64 (FNV-64a of the canonical key), never the process-local
// interned ID: IDs depend on interning order and mean nothing to another
// process.
package wire

import (
	"encoding/json"
	"net/http"
	"time"
)

// BatchRequest is the JSON body of POST /v1/batch.
type BatchRequest struct {
	// Program is the mini-C source text (with its struct axiom blocks).
	// Program mode only; must be empty when Raw queries are given.
	Program string `json:"program,omitempty"`
	// Fn names the function to analyze; may be empty when the program has
	// exactly one function.
	Fn string `json:"fn,omitempty"`
	// Queries are aptdep -batch lines; '#' comments and blank lines are
	// accepted and skipped.
	Queries []string `json:"queries,omitempty"`

	// AxiomSet carries the axiom set for Raw queries, one parseable axiom
	// per line (axiom.Set.Source rendering).  AxiomSetName optionally names
	// it (for stats and proof traces).
	AxiomSet     string `json:"axiom_set,omitempty"`
	AxiomSetName string `json:"axiom_set_name,omitempty"`
	// Raw are fully specified dependence queries answered directly against
	// AxiomSet, bypassing program parsing and analysis.
	Raw []RawQuery `json:"raw,omitempty"`

	// TimeoutMS, when positive, bounds each query's proof search in
	// milliseconds (capped by the server's MaxDeadline).  Zero selects the
	// server default.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// DeadlineMS, when positive, bounds the whole request in milliseconds
	// (capped by the server's MaxDeadline).  Zero selects the server cap.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
	// Verify re-checks every prover-backed No with the independent proof
	// checker.
	Verify bool `json:"verify,omitempty"`
	// AssumeInvariants enables §5's "full" analysis (loops are assumed to
	// re-establish axioms despite structural modifications).
	AssumeInvariants bool `json:"assume_invariants,omitempty"`
}

// RawQuery is one fully specified dependence question: does the T access
// depend on the S access?  Paths are pathexpr syntax; Relation describes
// the two anchor handles when they differ ("same" when the handle names are
// equal, "distinct" when they are known to denote different vertices,
// "unknown" when nothing is known — defaulting to "same" iff the handle
// names are equal, else "unknown").
type RawQuery struct {
	SHandle string `json:"s_handle"`
	SPath   string `json:"s_path"`
	SField  string `json:"s_field"`
	SWrite  bool   `json:"s_write,omitempty"`

	THandle string `json:"t_handle"`
	TPath   string `json:"t_path"`
	TField  string `json:"t_field"`
	TWrite  bool   `json:"t_write,omitempty"`

	Relation string `json:"relation,omitempty"`
}

// QueryResult is one expanded dependence query's verdict.
type QueryResult struct {
	// Line indexes the request's Queries slice (program mode) or Raw slice
	// (raw mode) this result answers.
	Line int `json:"line"`
	// Query echoes the originating query line (program mode) or a rendering
	// of the raw query.
	Query string `json:"query"`
	// S and T render the two accesses.
	S string `json:"s"`
	T string `json:"t"`
	// Result is "no" / "maybe" / "yes"; Kind the dependence kind.
	Result string `json:"result"`
	Kind   string `json:"kind"`
	Reason string `json:"reason"`
}

// BatchStats reports the request's cost and the warm-cache state it ran
// against.
type BatchStats struct {
	Queries   int   `json:"queries"`
	ElapsedUS int64 `json:"elapsed_us"`
	// ServiceUS is the server-side service time for the whole request —
	// parse, analysis, engine acquisition (including a cold build), and the
	// batch run — excluding admission queueing.  Cold-vs-warm comparisons
	// should use this rather than client-observed latency, which folds in
	// queue wait and connection effects.
	ServiceUS int64 `json:"service_us"`
	// ColdEngine reports whether this request built the engine (first
	// sighting of its axiom set since startup or since LRU reclamation).
	ColdEngine bool   `json:"cold_engine"`
	AxiomSet   string `json:"axiom_set"`
	// Cumulative counters of the engine pool's shared proof memo and DFA
	// cache (across all requests and axiom sets), for observing warm-up
	// without scraping /statz.
	MemoHits    int64 `json:"memo_hits"`
	MemoLookups int64 `json:"memo_lookups"`
	DFAHits     int64 `json:"dfa_hits"`
	DFALookups  int64 `json:"dfa_lookups"`
	// Timeouts counts this request's queries degraded toward Maybe because
	// the per-query timeout expired (not the engine's lifetime count, which
	// /statz reports per axiom set).
	Timeouts int64 `json:"timeouts"`
	// TraceID identifies this request's trace (the same id the traceparent
	// response header carries).
	TraceID string `json:"trace_id,omitempty"`
	// DegradedQueries counts this request's queries degraded toward Maybe
	// (all three reasons); DeadlineExpired the subset degraded because the
	// request deadline passed.
	DegradedQueries int64 `json:"degraded_queries,omitempty"`
	DeadlineExpired int64 `json:"deadline_expired,omitempty"`
}

// BatchResponse is the JSON body answering POST /v1/batch.
type BatchResponse struct {
	Results []QueryResult `json:"results"`
	// Dependent reports whether any query answered other than No (the
	// aptdep exit-status convention).
	Dependent bool       `json:"dependent"`
	Stats     BatchStats `json:"stats"`
}

// ErrorResponse is the JSON body of every non-200 answer.
type ErrorResponse struct {
	Error string `json:"error"`
}

// WriteJSON writes v as an indented JSON body with the given status.
func WriteJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // the client hanging up is its problem
}

// WriteJSONError writes the protocol's error body.
func WriteJSONError(w http.ResponseWriter, code int, msg string) {
	WriteJSON(w, code, ErrorResponse{Error: msg})
}

// ClampMS converts a client-supplied millisecond budget to a duration in
// (0, max]; non-positive selects max.
func ClampMS(ms int64, max time.Duration) time.Duration {
	if ms <= 0 {
		return max
	}
	d := time.Duration(ms) * time.Millisecond
	if d > max {
		return max
	}
	return d
}
