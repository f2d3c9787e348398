// Package cliutil holds small helpers shared by the cmd/ front-ends.
package cliutil

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/telemetry"
)

// TelemetryFlags wires the shared observability flags (-stats, -trace-json,
// -stats-prom) into a command's flag set and owns the instruments they
// request.
//
// Lifecycle: Register the flags, Open after parsing to get the *telemetry.Set
// to thread through the pipeline — its trace streams every span and event
// to the -trace-json file — and Close at exit to flush the trace file and
// print the -stats summary.
type TelemetryFlags struct {
	Stats     bool
	TracePath string
	PromPath  string

	reg *telemetry.Registry
	tw  *telemetry.TraceWriter
	f   *os.File
}

// Register adds -stats, -trace-json, and -stats-prom to fs.
func (t *TelemetryFlags) Register(fs *flag.FlagSet) {
	fs.BoolVar(&t.Stats, "stats", false, "print a metrics summary to stderr on exit")
	fs.StringVar(&t.TracePath, "trace-json", "", "write a JSONL event trace to `file`")
	fs.StringVar(&t.PromPath, "stats-prom", "", "write the final metrics as Prometheus text exposition to `file` on exit")
}

// EnsureRegistry forces the metrics half on before Open — used by live
// endpoints (sparsebench -http) that serve snapshots regardless of -stats —
// and returns the registry.
func (t *TelemetryFlags) EnsureRegistry() *telemetry.Registry {
	if t.reg == nil {
		t.reg = telemetry.NewRegistry()
	}
	return t.reg
}

// Open materializes the instruments the parsed flags asked for and returns
// the Set to thread through the pipeline.  When neither flag was given the
// Set is disabled (nil-safe everywhere).
func (t *TelemetryFlags) Open() (*telemetry.Set, error) {
	if t.reg == nil && (t.Stats || t.TracePath != "" || t.PromPath != "") {
		t.reg = telemetry.NewRegistry()
	}
	if t.TracePath != "" {
		f, err := os.Create(t.TracePath)
		if err != nil {
			return nil, fmt.Errorf("trace-json: %w", err)
		}
		t.f = f
		t.tw = telemetry.NewTraceWriter(f)
	}
	return telemetry.New(t.reg, telemetry.NewStreamingTrace(t.tw)), nil
}

// Registry returns the metrics registry (nil when disabled).
func (t *TelemetryFlags) Registry() *telemetry.Registry { return t.reg }

// Close flushes the trace file, writes the -stats-prom exposition, and,
// under -stats, writes the summary to stderr: the phase table (when phases
// is non-nil), derived cache rates, and the full instrument snapshot.
// Returns the first write error.
func (t *TelemetryFlags) Close(stderr io.Writer, phases *telemetry.Phases) error {
	var firstErr error
	if err := t.tw.Err(); err != nil {
		firstErr = fmt.Errorf("trace-json: %w", err)
	}
	if t.f != nil {
		if err := t.f.Close(); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("trace-json: %w", err)
		}
	}
	if t.PromPath != "" && t.reg != nil {
		if err := t.writeProm(); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("stats-prom: %w", err)
		}
	}
	if t.Stats && t.reg != nil {
		if phases != nil {
			fmt.Fprint(stderr, phases.Summary())
		}
		snap := t.reg.Snapshot()
		if r, ok := snap.Ratio("prover.cache_hits", "prover.goals"); ok {
			fmt.Fprintf(stderr, "prover cache hit rate: %.1f%% (%d of %d goals)\n",
				100*r, snap.Counters["prover.cache_hits"], snap.Counters["prover.goals"])
		}
		if r, ok := snap.Ratio("automata.shared_hits", "automata.shared_lookups"); ok {
			fmt.Fprintf(stderr, "DFA language-cache hit rate: %.1f%% (%d of %d lookups)\n",
				100*r, snap.Counters["automata.shared_hits"], snap.Counters["automata.shared_lookups"])
		}
		if c, ok := snap.Counters["automata.shared_compiles"]; ok {
			fmt.Fprintf(stderr, "DFA compiles: %d\n", c)
		}
		snap.WriteText(stderr)
	}
	return firstErr
}

// writeProm renders the registry as Prometheus text exposition into
// PromPath — the one-shot CLI's counterpart of aptserved's /metrics, so the
// same dashboards can ingest a batch run's final counters.
func (t *TelemetryFlags) writeProm() error {
	f, err := os.Create(t.PromPath)
	if err != nil {
		return err
	}
	if err := t.reg.WritePrometheus(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
