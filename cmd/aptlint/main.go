// Command aptlint runs the pass-based static analyzer over mini-C source
// files and prints source-anchored diagnostics.
//
// Examples:
//
//	aptlint prog.c                        lint with every pass
//	aptlint -pass handle-safety prog.c    run a single pass
//	aptlint -json prog.c other.c          machine-readable output
//	aptlint -passes                       list the available passes
//	aptlint -stats -trace-json t.jsonl prog.c
//	aptlint -watch prog.c                 re-lint on change, incrementally
//	aptlint -incr-cache .apt.json prog.c  persist fingerprints across runs
//
// Exit status: 0 when no error-severity diagnostic was emitted, 1 when at
// least one was (including parse failures, which are reported as diagnostics
// in the "parse" category), 2 on usage or internal errors.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro/internal/cliutil"
	"repro/internal/lang"
	"repro/internal/lint"
	"repro/internal/telemetry"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main without the process-global bindings, so tests can drive the
// whole CLI in-process.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("aptlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	jsonOut := fs.Bool("json", false, "emit diagnostics as a JSON array")
	passNames := fs.String("pass", "", "comma-separated `list` of passes to run (default: all)")
	listPasses := fs.Bool("passes", false, "list the available passes and exit")
	workers := fs.Int("j", 1, "worker `width` for the batched dependence-query engine; verdicts are identical at any width, but widths above 1 may vary the proof-search statistics quoted in diagnostics")
	watch := fs.Bool("watch", false, "watch the files and incrementally re-lint on change (only fingerprint-dirty functions and their interprocedural dependents re-run)")
	watchInterval := fs.Duration("watch-interval", 500*time.Millisecond, "polling `period` for -watch")
	watchCycles := fs.Int("watch-cycles", 0, "stop -watch after `n` poll cycles (0 = watch forever; used by tests and benchmarks)")
	incrCache := fs.String("incr-cache", "", "`path` of the persisted incremental store: fingerprints and diagnostics survive process restarts, so unchanged declarations are never re-analyzed")
	var tf cliutil.TelemetryFlags
	tf.Register(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	fatalf := func(format string, fargs ...any) int {
		fmt.Fprintf(stderr, "aptlint: "+format+"\n", fargs...)
		return 2
	}
	if *listPasses {
		for _, p := range lint.DefaultPasses() {
			fmt.Fprintf(stdout, "%-26s %s\n", p.Name(), p.Doc())
		}
		return 0
	}
	if fs.NArg() == 0 {
		return fatalf("usage: aptlint [flags] file.c ...")
	}
	passes := lint.DefaultPasses()
	if *passNames != "" {
		var err error
		passes, err = lint.PassesByName(strings.Split(*passNames, ","))
		if err != nil {
			return fatalf("%v", err)
		}
	}

	tel, err := tf.Open()
	if err != nil {
		return fatalf("%v", err)
	}
	phases := telemetry.NewPhases(tel)
	defer tf.Close(stderr, phases)

	// Each file's lint phase hands the driver its Set, so the pass spans
	// and everything under them join that phase's tree.
	newDriver := func(set *telemetry.Set) *lint.Driver {
		return lint.NewDriver(set, passes...).SetWorkers(*workers)
	}

	if *watch || *incrCache != "" {
		store := lint.NewStore()
		if *incrCache != "" {
			store, err = lint.LoadStore(*incrCache)
			if err != nil {
				return fatalf("%v", err)
			}
		}
		inc := &lint.IncrementalDriver{Store: store, Caches: lint.NewCaches()}
		if *watch {
			// Watch mode opens each re-lint's lint phase span itself, from
			// the root Set its driver reports through.
			inc.Driver = newDriver(tel)
			hadErrors, err := lint.Watch(fs.Args(), inc, lint.WatchOptions{
				Interval:  *watchInterval,
				Cycles:    *watchCycles,
				Out:       stdout,
				Status:    stderr,
				JSON:      *jsonOut,
				StorePath: *incrCache,
			})
			if err != nil {
				return fatalf("%v", err)
			}
			if hadErrors {
				return 1
			}
			return 0
		}
		// One-shot incremental run against the persisted store.
		code := lintFiles(fs.Args(), stdout, stderr, phases, *jsonOut,
			func(set *telemetry.Set, file string, prog *lang.Program) ([]lint.Diagnostic, error) {
				inc.Driver = newDriver(set)
				diags, _, err := inc.Run(file, prog)
				return diags, err
			})
		if code != 2 {
			if err := store.Save(*incrCache); err != nil {
				return fatalf("%v", err)
			}
		}
		return code
	}

	return lintFiles(fs.Args(), stdout, stderr, phases, *jsonOut,
		func(set *telemetry.Set, file string, prog *lang.Program) ([]lint.Diagnostic, error) {
			return newDriver(set).Run(file, prog)
		})
}

// lintFiles parses and lints each file through lintOne, renders the
// results, and returns the process exit code.  lintOne reports through
// the Set of the file's lint phase, so its spans join the phase's tree.
func lintFiles(files []string, stdout, stderr io.Writer, phases *telemetry.Phases, jsonOut bool,
	lintOne func(*telemetry.Set, string, *lang.Program) ([]lint.Diagnostic, error)) int {
	fatalf := func(format string, fargs ...any) int {
		fmt.Fprintf(stderr, "aptlint: "+format+"\n", fargs...)
		return 2
	}
	var results []lint.FileResult
	anyErrors := false
	for _, file := range files {
		var diags []lint.Diagnostic
		var prog *lang.Program
		err := phases.Run("parse", func(*telemetry.Set) error {
			src, err := os.ReadFile(file)
			if err != nil {
				return err
			}
			prog, err = lang.Parse(string(src))
			return err
		})
		switch {
		case err != nil && prog == nil && isParseError(err):
			// A file the frontend rejects is a finding, not a tool failure.
			pos, _ := lang.ErrPos(err)
			diags = []lint.Diagnostic{{
				Pos: pos, Severity: lint.Error, Category: "parse", Message: err.Error(),
			}}
		case err != nil:
			return fatalf("%s: %v", file, err)
		default:
			if err := phases.Run("lint", func(set *telemetry.Set) error {
				diags, err = lintOne(set, file, prog)
				return err
			}); err != nil {
				return fatalf("%v", err)
			}
		}
		anyErrors = anyErrors || lint.HasErrors(diags)
		results = append(results, lint.FileResult{File: file, Diags: diags})
	}

	if jsonOut {
		if err := lint.WriteJSON(stdout, results); err != nil {
			return fatalf("%v", err)
		}
	} else {
		lint.WriteText(stdout, results)
	}
	if anyErrors {
		return 1
	}
	return 0
}

// isParseError distinguishes frontend rejections (reported as diagnostics)
// from I/O failures (reported as tool errors).
func isParseError(err error) bool {
	_, ok := lang.ErrPos(err)
	return ok
}
