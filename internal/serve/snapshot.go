package serve

import (
	"fmt"
	"io"
	"net/http"
	"strconv"

	"repro/internal/automata"
	"repro/internal/wire"
)

// Warm-handoff endpoints.  A cluster router reacting to a ring change asks
// the shard's old owner for a snapshot of its warm engine state and ships
// it to the new owner, so the move costs one artifact transfer instead of a
// cold rebuild plus a re-proved memo.  Both endpoints address engines by
// the axiom set's cross-process fingerprint — the only identity two
// processes share (see axiom.Set.Fingerprint64).

// handleSnapshot answers GET /v1/snapshot?fp=<hex fingerprint> with the
// fingerprinted engine's warm state as a binary aptc artifact (404 when no
// such engine is resident — the caller then simply lets the gaining
// backend build cold).
func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		wire.WriteJSONError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	fp, err := strconv.ParseUint(r.URL.Query().Get("fp"), 16, 64)
	if err != nil {
		wire.WriteJSONError(w, http.StatusBadRequest, fmt.Sprintf("fp: want a hex fingerprint: %v", err))
		return
	}
	art := s.pool.SnapshotArtifact(fp)
	if art == nil {
		wire.WriteJSONError(w, http.StatusNotFound, fmt.Sprintf("no resident engine for fingerprint %016x", fp))
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	art.WriteTo(w) //nolint:errcheck // client hangup
}

// PreloadReport is the JSON body answering POST /v1/preload.
type PreloadReport struct {
	// Built counts engines this preload constructed (axiom sets from the
	// artifact that were not already resident).
	Built int `json:"built"`
	// Resident is the pool population after the preload.
	Resident int `json:"resident"`
}

// handlePreload answers POST /v1/preload (body: a binary aptc artifact) by
// building — artifact-preseeded — an engine for every axiom set the
// artifact carries.  Already-resident engines are left untouched: they are
// at least as warm as any snapshot.
func (s *Server) handlePreload(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		wire.WriteJSONError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	// Artifacts outgrow batch bodies (they carry DFA tables); allow 64× the
	// batch body cap rather than adding another knob.
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 64*s.cfg.MaxBodyBytes))
	if err != nil {
		wire.WriteJSONError(w, http.StatusBadRequest, fmt.Sprintf("read body: %v", err))
		return
	}
	art, err := automata.DecodeArtifact(body)
	if err != nil {
		wire.WriteJSONError(w, http.StatusBadRequest, fmt.Sprintf("artifact: %v", err))
		return
	}
	built := s.pool.PreloadArtifact(art)
	wire.WriteJSON(w, http.StatusOK, PreloadReport{Built: built, Resident: s.pool.Len()})
}
