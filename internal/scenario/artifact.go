package scenario

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/analysis"
	"repro/internal/engine"
	"repro/internal/lang"
)

// SaveArtifact writes one divergence as a pretty-printed JSON file under
// dir, named after the family and a content-derived suffix so repeated runs
// that find the same divergence overwrite rather than accumulate.  It
// returns the path written.
func SaveArtifact(dir string, d *Divergence) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	blob, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		return "", err
	}
	blob = append(blob, '\n')
	h := uint64(1469598103934665603)
	for _, b := range blob {
		h ^= uint64(b)
		h *= 1099511628211
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-%s-%08x.json", d.Family, d.Kind, uint32(h)))
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		return "", err
	}
	return path, nil
}

// LoadArtifact reads one divergence artifact.
func LoadArtifact(path string) (*Divergence, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var d Divergence
	if err := json.Unmarshal(blob, &d); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if d.Version != 1 {
		return nil, fmt.Errorf("%s: unsupported artifact version %d", path, d.Version)
	}
	if FamilyByName(d.Family) == nil {
		return nil, fmt.Errorf("%s: unknown family %q", path, d.Family)
	}
	return &d, nil
}

// ListArtifacts returns the artifact files under dir, sorted; a missing
// directory is an empty corpus.
func ListArtifacts(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var out []string
	for _, e := range entries {
		if !e.IsDir() && filepath.Ext(e.Name()) == ".json" {
			out = append(out, filepath.Join(dir, e.Name()))
		}
	}
	sort.Strings(out)
	return out, nil
}

// Replay re-runs an artifact's cross-check from scratch — parse the stored
// program, rebuild the stored heap, obtain fresh verdicts, and re-run both
// oracles.  It returns nil when the check is clean (the regression is
// fixed) and a fresh Divergence when it still reproduces.
func Replay(d *Divergence) (*Divergence, error) {
	fam := FamilyByName(d.Family)
	prog, err := lang.Parse(d.Program)
	if err != nil {
		return nil, fmt.Errorf("artifact program does not parse: %w", err)
	}
	g, err := d.Heap.Graph()
	if err != nil {
		return nil, err
	}

	runs, execErr := oracleSweepAll(prog, fam, d.NInts, g)
	if d.Kind == KindExecError {
		if execErr == nil {
			return nil, nil
		}
		redo := *d
		redo.Detail = execErr.Error()
		return &redo, nil
	}
	if execErr != nil {
		return nil, fmt.Errorf("artifact program no longer executes: %w", execErr)
	}

	res, err := analysis.Analyze(prog, d.Fn, analysis.Options{})
	if err != nil {
		return nil, fmt.Errorf("artifact program does not analyze: %w", err)
	}
	qs, err := res.QueriesFor(d.Query.Mode, d.Query.A, d.Query.B)
	if errors.Is(err, analysis.ErrQueryMode) {
		return nil, fmt.Errorf("artifact query mode %q unknown", d.Query.Mode)
	}
	if err != nil {
		// The analysis no longer builds the query — there is no No verdict
		// left to contradict.
		return nil, nil
	}
	eng := engine.New(engine.Options{QueryTimeout: 2 * time.Second})
	if lineVerdict(eng.Batch(context.Background(), qs)) != "no" {
		return nil, nil
	}
	for _, r := range runs {
		if hit, detail := lineConflict(r.Trace, d.Query); hit {
			redo := *d
			redo.Detail = fmt.Sprintf("still reproduces: verdict No for %q, but (%s, root %d, ints %v): %s",
				d.Query.Text, r.Desc, r.Root, r.Ints, detail)
			return &redo, nil
		}
	}
	return nil, nil
}
