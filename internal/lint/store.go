package lint

import (
	"encoding/json"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
)

// storeSchema tags the on-disk store.  It covers fpSchema and what the
// fingerprint cannot: the analyses behind the stored diagnostics.  Bump the
// suffix when they report differently on an unchanged declaration (v2:
// staleness through summarized calls, the address-taken rule).
const storeSchema = fpSchema + "/store-v2"

// Store is the persisted state of the incremental driver: per-file, the
// fingerprint and diagnostics of every top-level declaration as of the
// last run.  It round-trips through JSON so watch sessions survive process
// restarts (-incr-cache).
type Store struct {
	// Schema (storeSchema) guards the on-disk format, the fingerprint
	// schema and the analyses at once: a loaded store with a different
	// schema is discarded wholesale.
	Schema string                `json:"schema"`
	Files  map[string]*FileState `json:"files"`
}

// FileState is the stored state of one translation unit.
type FileState struct {
	Owners map[string]*OwnerState `json:"owners"`
}

// OwnerState is the stored state of one top-level declaration ("f:name" or
// "s:name"): its fingerprint, the line it started on at store time (reused
// diagnostics are rebased by the delta to the current start line), and the
// diagnostics attributed to it.
type OwnerState struct {
	FP        uint64       `json:"fp"`
	StartLine int          `json:"start_line"`
	Diags     []Diagnostic `json:"diags,omitempty"`
}

// NewStore returns an empty store.
func NewStore() *Store {
	return &Store{Schema: storeSchema, Files: map[string]*FileState{}}
}

// LoadStore reads a store from path.  A missing file or a schema mismatch
// yields a fresh store (both just mean "analyze everything"); only real
// I/O or decode failures are errors.
func LoadStore(path string) (*Store, error) {
	data, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return NewStore(), nil
	}
	if err != nil {
		return nil, err
	}
	var s Store
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, err
	}
	if s.Schema != storeSchema || s.Files == nil {
		return NewStore(), nil
	}
	return &s, nil
}

// Save writes the store to path (via a temp file + rename, so a crashed
// run never leaves a truncated store behind).
func (s *Store) Save(path string) error {
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), ".aptlint-store-*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(append(data, '\n')); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return os.Rename(tmp.Name(), path)
}
