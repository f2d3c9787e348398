package serve

import (
	"fmt"
	"net/http"
	"strconv"

	"repro/internal/automata"
	"repro/internal/wire"
)

// Warm-handoff endpoints.  A cluster router reacting to a ring change asks
// the shard's old owner for a snapshot of its warm state and ships it to
// the new owner, so the move costs one artifact transfer instead of
// re-proving the memo.  The snapshot is addressed by the axiom set's
// cross-process fingerprint — the only identity two processes share (see
// axiom.Set.Fingerprint64).

// handleSnapshot answers GET /v1/snapshot?fp=<hex fingerprint> with the
// process's warm state as a binary aptc artifact (404 when the proof memo
// holds no goal under the fingerprinted axiom set — the caller then simply
// lets the gaining backend start cold).
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
		wire.WriteJSONError(w, http.StatusNotFound, fmt.Sprintf("no proof goals for fingerprint %016x", fp))
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	art.WriteTo(w) //nolint:errcheck // client hangup
}

// PreloadReport is the JSON body answering POST /v1/preload: what the
// preload inserted into the DFA cache, the decision memo and the proof memo
// (entries already present are left as they are and not counted).
type PreloadReport struct {
	DFAs      int `json:"dfas"`
	Decisions int `json:"decisions"`
	Goals     int `json:"goals"`
}

// handlePreload answers POST /v1/preload (body: a binary aptc artifact) by
// preseeding the process's caches with it.
func (s *Server) handlePreload(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		wire.WriteJSONError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	// Artifacts outgrow batch bodies (they carry DFA tables); allow 64× the
	// batch body cap rather than adding another knob.
	body, err := wire.ReadBody(w, r, 64*s.cfg.MaxBodyBytes)
	if err != nil {
		wire.WriteBodyError(w, "read body", err)
		return
	}
	art, err := automata.DecodeArtifact(body)
	if err != nil {
		wire.WriteJSONError(w, http.StatusBadRequest, fmt.Sprintf("artifact: %v", err))
		return
	}
	var rep PreloadReport
	rep.DFAs, rep.Decisions, rep.Goals = s.pool.PreloadArtifact(art)
	wire.WriteJSON(w, http.StatusOK, rep)
}
