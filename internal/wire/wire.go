// Package wire is the transport-neutral layer of the query plane: the JSON
// request/response vocabulary of POST /v1/batch, its one codec
// (DecodeRequest and DecodeResponse; AppendResponse and WriteResponse for
// the 200 answer), plus the small helpers both sides of the wire share
// (body reading, JSON writers, millisecond clamping).
// Everything that talks the protocol — the serving execution stack
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
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
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
	// Verify asks for every prover-backed No to be re-checked by the
	// independent proof checker.  Verification is a server-wide setting
	// (aptserved -verify): a verifying server answers as usual, and any
	// other server refuses the request with 400 rather than answer
	// unverified.
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
	// Result is the verdict, "No", "Maybe" or "Yes" (see ParseVerdict);
	// Kind the dependence kind.
	Result string `json:"result"`
	Kind   string `json:"kind"`
	Reason string `json:"reason"`
}

// BatchStats reports the request's cost.
type BatchStats struct {
	Queries   int   `json:"queries"`
	ElapsedUS int64 `json:"elapsed_us"`
	// ServiceUS is the server-side service time for the whole request —
	// parse, analysis, and the batch run — excluding admission queueing.
	// Cold-vs-warm comparisons should use this rather than client-observed
	// latency, which folds in queue wait and connection effects.
	ServiceUS int64  `json:"service_us"`
	AxiomSet  string `json:"axiom_set"`
	// Timeouts counts this request's queries degraded toward Maybe because
	// the per-query timeout expired (not the engine's lifetime count, which
	// /metrics reports as apt_engine_degraded_query_timeout_total).
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

// Verdict is a dependence verdict as QueryResult.Result spells it.
type Verdict uint8

const (
	VerdictNo Verdict = iota
	VerdictMaybe
	VerdictYes
)

// ParseVerdict maps a QueryResult.Result string to its verdict.  It accepts
// exactly "No", "Maybe" and "Yes"; any other spelling, a lowercase one
// included, is an error rather than a silent Maybe.
func ParseVerdict(s string) (Verdict, error) {
	switch s {
	case "No":
		return VerdictNo, nil
	case "Maybe":
		return VerdictMaybe, nil
	case "Yes":
		return VerdictYes, nil
	}
	return 0, fmt.Errorf("unknown verdict %q: want \"No\", \"Maybe\" or \"Yes\"", s)
}

// ErrorResponse is the JSON body of every non-200 answer.
type ErrorResponse struct {
	Error string `json:"error"`
}

// WriteJSON writes v as a compact JSON body with the given status, by
// reflection: the error bodies and the metrics and flight-recorder
// snapshots.  A BatchResponse goes out through WriteResponse, which writes
// the same bytes.  HTML escaping is off: every access rendering carries
// "->", which the escaper would spell as the six bytes \u003e.  Pipe
// through jq to read it.
func WriteJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	enc.Encode(v) //nolint:errcheck // the client hanging up is its problem
}

// WriteJSONError writes the protocol's error body.
func WriteJSONError(w http.ResponseWriter, code int, msg string) {
	WriteJSON(w, code, ErrorResponse{Error: msg})
}

// ReadBody reads r's body through an http.MaxBytesReader of the given
// limit, into one buffer sized from Content-Length when that is within it.
func ReadBody(w http.ResponseWriter, r *http.Request, limit int64) ([]byte, error) {
	body := http.MaxBytesReader(w, r.Body, limit)
	if r.ContentLength <= 0 || r.ContentLength > limit {
		return io.ReadAll(body)
	}
	buf := bytes.NewBuffer(make([]byte, 0, r.ContentLength+bytes.MinRead))
	_, err := buf.ReadFrom(body)
	return buf.Bytes(), err
}

// WriteBodyError answers a request whose body failed to read or decode:
// 413 naming the cap when the body outgrew its http.MaxBytesReader, else
// 400 with what failed.
func WriteBodyError(w http.ResponseWriter, what string, err error) {
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		WriteJSONError(w, http.StatusRequestEntityTooLarge, fmt.Sprintf("request body exceeds the limit of %d bytes", tooBig.Limit))
		return
	}
	WriteJSONError(w, http.StatusBadRequest, fmt.Sprintf("%s: %v", what, err))
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
