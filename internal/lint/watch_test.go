package lint

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/lang"
)

// TestWatchFirstPassMatchesPlainRun is the byte-identity golden for
// incremental re-emission: the first emission of a watch session must be
// byte-for-byte the output of a plain (non-incremental) run over the same
// files.
func TestWatchFirstPassMatchesPlainRun(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("..", "..", "testdata", "lint", "*.c"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no corpus: %v", err)
	}

	var plain bytes.Buffer
	var results []FileResult
	d := NewDriver(nil)
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		prog, err := lang.Parse(string(src))
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		diags, err := d.Run(f, prog)
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, FileResult{File: f, Diags: diags})
	}
	WriteText(&plain, results)

	var watched bytes.Buffer
	inc := NewIncremental(NewDriver(nil))
	if _, err := Watch(files, inc, WatchOptions{
		Interval: time.Millisecond,
		Cycles:   1,
		Out:      &watched,
	}); err != nil {
		t.Fatal(err)
	}
	if watched.String() != plain.String() {
		t.Errorf("watch first pass diverges from plain run:\n--- watch ---\n%s--- plain ---\n%s",
			watched.String(), plain.String())
	}
}

// TestWatchDetectsEditsAndReanalyzesIncrementally: an edit to one function
// triggers a re-emission whose only re-analyzed declarations are the dirty
// ones, and the re-emitted output reflects the edit.
func TestWatchDetectsEditsAndReanalyzesIncrementally(t *testing.T) {
	dir := t.TempDir()
	file := filepath.Join(dir, "u.c")
	orig := `
struct N {
	struct N *nx;
	int d;
};

void splice(struct N *a) {
	struct N *t;
	t = a->nx;
	if (t != NULL) {
		a->nx = NULL;
		t->d = 1;
	}
}

void quiet(struct N *a) {
	a->d = 0;
}
`
	if err := os.WriteFile(file, []byte(orig), 0o644); err != nil {
		t.Fatal(err)
	}

	edited := strings.Replace(orig, "a->d = 0;", "a->d = 2;", 1)
	go func() {
		time.Sleep(60 * time.Millisecond)
		// Rewrite with a different size so polling sees it regardless of
		// filesystem timestamp granularity.
		os.WriteFile(file, []byte(edited+"\n// edited\n"), 0o644)
	}()

	var out, status bytes.Buffer
	inc := NewIncremental(NewDriver(nil))
	if _, err := Watch([]string{file}, inc, WatchOptions{
		Interval: 10 * time.Millisecond,
		Cycles:   40,
		Out:      &out,
		Status:   &status,
	}); err != nil {
		t.Fatal(err)
	}

	// Two emissions: initial and after the edit.
	warnings := strings.Count(out.String(), "use of handle t after destructive update")
	if warnings != 2 {
		t.Errorf("expected the splice warning in both emissions, saw it %d time(s):\n%s", warnings, out.String())
	}
	// The second run reuses everything except the edited function: the
	// status log must show a re-analysis of 1 declaration.
	if !strings.Contains(status.String(), "re-analyzed 1 declaration(s)") {
		t.Errorf("no incremental re-analysis recorded:\n%s", status.String())
	}
}

// onWrite is a status writer that runs fn, once, when a status line
// containing trigger is written — a synchronization point inside Watch.
type onWrite struct {
	bytes.Buffer
	trigger string
	fn      func()
	fired   bool
}

func (w *onWrite) Write(p []byte) (int, error) {
	if !w.fired && bytes.Contains(p, []byte(w.trigger)) {
		w.fired = true
		w.fn()
	}
	return w.Buffer.Write(p)
}

// TestWatchSkipsUnchangedBytes: rewriting a watched file with identical
// bytes and a new modification time is not an edit.  The rewrite happens
// when Watch reports it is watching, so every poll after it sees the new
// mtime; none may re-analyze or re-emit.
func TestWatchSkipsUnchangedBytes(t *testing.T) {
	file := filepath.Join(t.TempDir(), "u.c")
	src := []byte(`
struct N {
	struct N *nx;
	int d;
};

void splice(struct N *a) {
	struct N *t;
	t = a->nx;
	if (t != NULL) {
		a->nx = NULL;
		t->d = 1;
	}
}
`)
	if err := os.WriteFile(file, src, 0o644); err != nil {
		t.Fatal(err)
	}
	status := &onWrite{trigger: "watching", fn: func() {
		if err := os.WriteFile(file, src, 0o644); err != nil {
			t.Error(err)
		}
		old := time.Unix(1_000_000_000, 0)
		if err := os.Chtimes(file, old, old); err != nil {
			t.Error(err)
		}
	}}
	var out bytes.Buffer
	inc := NewIncremental(NewDriver(nil))
	if _, err := Watch([]string{file}, inc, WatchOptions{
		Interval: time.Millisecond,
		Cycles:   5,
		Out:      &out,
		Status:   status,
	}); err != nil {
		t.Fatal(err)
	}
	if !status.fired {
		t.Fatal("watch never reported it was watching")
	}
	if n := strings.Count(out.String(), "use of handle t after destructive update"); n != 1 {
		t.Errorf("want only the initial emission, saw the warning %d time(s):\n%s", n, out.String())
	}
	_, after, _ := strings.Cut(status.String(), "watching")
	if strings.Contains(after, "re-analyzed") {
		t.Errorf("identical bytes re-analyzed:\n%s", status.String())
	}
}
