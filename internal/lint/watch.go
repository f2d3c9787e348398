package lint

import (
	"crypto/sha256"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/lang"
	"repro/internal/telemetry"
)

// WatchOptions configures a watch session.
type WatchOptions struct {
	// Interval is the polling period (modification time + size; the
	// portable change signal — no platform watcher dependencies).  A
	// change is acted on once the attributes hold still for one poll, so
	// a poll that lands between a rewrite's truncate and its write never
	// lints the half-written file.
	Interval time.Duration
	// Cycles bounds the session: after this many polls the session
	// returns (0 means watch forever).  Tests use small cycle counts.
	Cycles int
	// Out receives the diagnostics; every cycle in which some file's bytes
	// changed re-emits the full result set for all watched files, so
	// consumers always see a complete, current picture.  A file whose
	// modification time or size changed but whose bytes did not (a
	// rewrite with identical content) is neither re-analyzed nor
	// re-emitted.  The first emission is byte-identical to a plain
	// (non-watch) run over the same files.
	Out io.Writer
	// Status receives one human-readable line per event (stderr in the
	// CLI); nil discards them.
	Status io.Writer
	// JSON selects machine-readable re-emissions.
	JSON bool
	// StorePath, when non-empty, persists the incremental store there
	// after every emission.
	StorePath string
}

// watchedFile is the per-file polling state: the (mtime, size) seen at the
// last poll, the cheap change signal, whether it changed since the last
// lint, and the hash of the bytes last linted, the real one (zero before
// the first lint; no file's bytes hash to it).
type watchedFile struct {
	name    string
	modTime time.Time
	size    int64
	pending bool
	sum     [sha256.Size]byte
	result  FileResult
}

// Watch incrementally lints files, then polls them and re-analyzes
// whatever changed — only fingerprint-dirty declarations and their
// interprocedural dependents actually re-run.  Returns whether the most
// recent emission contained error-severity diagnostics.
func Watch(files []string, inc *IncrementalDriver, opts WatchOptions) (bool, error) {
	if opts.Interval <= 0 {
		opts.Interval = 500 * time.Millisecond
	}
	status := func(format string, args ...any) {
		if opts.Status != nil {
			fmt.Fprintf(opts.Status, "aptlint: "+format+"\n", args...)
		}
	}

	watched := make([]*watchedFile, len(files))
	for i, f := range files {
		watched[i] = &watchedFile{name: f}
	}

	// lintOne lints w unless its bytes are those it last linted, and
	// reports whether it did.  A poll may stat the file mid-rewrite and
	// still read the finished bytes; comparing bytes, not attributes, keeps
	// the next poll from linting (and emitting) them a second time.  A
	// parsed file is linted under one "lint" pipeline.phase span opened
	// from the driver's Set, as in a one-shot run.
	tel := inc.Driver.tel
	lintOne := func(w *watchedFile) bool {
		start := time.Now()
		src, err := os.ReadFile(w.name)
		if err != nil {
			status("%s: %v", w.name, err)
			return false
		}
		sum := sha256.Sum256(src)
		if sum == w.sum {
			return false
		}
		w.sum = sum
		prog, err := lang.Parse(string(src))
		if err != nil {
			if pos, ok := lang.ErrPos(err); ok {
				w.result = FileResult{File: w.name, Diags: []Diagnostic{{
					Pos: pos, Severity: Error, Category: "parse", Message: err.Error(),
				}}}
			} else {
				status("%s: %v", w.name, err)
			}
			return true
		}
		sp := tel.Trace().StartSpan("pipeline.phase", tel.Parent())
		diags, stats, err := inc.run(w.name, prog, tel.Under(sp.ID()))
		sp.End(telemetry.String("phase", "lint"), telemetry.Bool("ok", err == nil))
		if err != nil {
			status("%s: %v", w.name, err)
			return true
		}
		w.result = FileResult{File: w.name, Diags: diags}
		status("%s: re-analyzed %d declaration(s), reused %d, %d diagnostic(s) in %.1fms",
			w.name, stats.Analyzed, stats.Reused, stats.Diags,
			float64(time.Since(start).Microseconds())/1000)
		return true
	}

	emit := func() (bool, error) {
		results := make([]FileResult, len(watched))
		for i, w := range watched {
			results[i] = w.result
		}
		if opts.JSON {
			if err := WriteJSON(opts.Out, results); err != nil {
				return false, err
			}
		} else {
			WriteText(opts.Out, results)
		}
		if opts.StorePath != "" {
			if err := inc.Store.Save(opts.StorePath); err != nil {
				return false, err
			}
		}
		hadErrors := false
		for _, r := range results {
			hadErrors = hadErrors || HasErrors(r.Diags)
		}
		return hadErrors, nil
	}

	// Initial pass over everything.
	for _, w := range watched {
		if st, err := os.Stat(w.name); err == nil {
			w.modTime, w.size = st.ModTime(), st.Size()
		}
		lintOne(w)
	}
	hadErrors, err := emit()
	if err != nil {
		return hadErrors, err
	}
	status("watching %d file(s), polling every %s", len(watched), opts.Interval)

	for cycle := 0; opts.Cycles == 0 || cycle < opts.Cycles; cycle++ {
		time.Sleep(opts.Interval)
		changed := false
		for _, w := range watched {
			st, err := os.Stat(w.name)
			if err != nil {
				continue
			}
			if !st.ModTime().Equal(w.modTime) || st.Size() != w.size {
				w.modTime, w.size = st.ModTime(), st.Size()
				w.pending = true // lint once it settles
				continue
			}
			if w.pending {
				w.pending = false
				changed = lintOne(w) || changed
			}
		}
		if changed {
			if hadErrors, err = emit(); err != nil {
				return hadErrors, err
			}
		}
	}
	return hadErrors, nil
}
