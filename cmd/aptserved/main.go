// Command aptserved is the long-lived dependence-query daemon: it serves
// POST /v1/batch (aptdep's -batch line format as JSON) over one warm
// engine, so the DFA cache and proof memo survive across requests instead
// of being rebuilt cold by every CLI invocation.
//
// Server mode:
//
//	aptserved -addr :8080 -workers 4
//
// Endpoints: POST /v1/batch, GET /healthz, GET /metrics (the telemetry
// registry as Prometheus text exposition), GET /metrics.json (the same
// registry as a JSON snapshot), GET /debug/flightrecorder (the K slowest +
// recent degraded request traces).  A full admission queue sheds load with
// 429 + Retry-After; SIGTERM/SIGINT drains in-flight batches before
// exiting; SIGQUIT dumps the flight recorder to stderr without stopping.
// -access-log writes one JSONL line per request.
//
// Router mode turns the same binary into the cluster's routing tier: a
// consistent-hash router that shards /v1/batch traffic across backends by
// axiom-set fingerprint over the fixed -backends list, with health probing,
// failover, and optional hedged retries:
//
//	aptserved -router -backends 127.0.0.1:8081,127.0.0.1:8082 -addr :8080
//	aptserved -router -backends ... -hedge 25ms   # hedge tail requests
//
// Measure the daemon with the repository benchmark (bash perfbench/run.sh),
// which drives the same serving stack in-process.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"repro/internal/route"
	"repro/internal/serve"
	"repro/internal/telemetry"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main without the process-global bindings, so tests can drive the
// daemon (including its signal-driven drain) in-process.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("aptserved", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", ":8080", "listen `address`")
	workers := fs.Int("workers", runtime.GOMAXPROCS(0), "engine pool `width`")
	queryTimeout := fs.Duration("query-timeout", serve.DefaultQueryTimeout, "default per-query proof-search bound")
	maxDeadline := fs.Duration("max-deadline", serve.DefaultMaxDeadline, "cap on any request's total deadline")
	concurrency := fs.Int("concurrency", 0, "requests answered at once (0 = GOMAXPROCS)")
	queue := fs.Int("queue", serve.DefaultQueueDepth, "admitted requests that may wait before shedding with 429")
	shardCap := fs.Int("shard-cap", serve.DefaultShardCap, "per-shard entry cap for the DFA cache, decision memo, and proof memo")
	maxQueries := fs.Int("max-queries", serve.DefaultMaxQueries, "expanded-query limit per request")
	verify := fs.Bool("verify", false, "independently re-check every prover-backed No")
	portFile := fs.String("port-file", "", "write the bound address to `file` once listening (for scripts driving :0)")
	accessLog := fs.String("access-log", "", "append one JSONL access-log line per request to `file` (\"-\" for stderr)")
	flightK := fs.Int("flight-k", 0, "slowest requests the flight recorder retains (0 = default)")
	flightRing := fs.Int("flight-ring", 0, "degraded requests the flight recorder's ring retains (0 = default)")

	router := fs.Bool("router", false, "run as a consistent-hash cluster router over -backends instead of a single-node server")
	backends := fs.String("backends", "", "router: comma-separated backend addresses (host:port or http://...)")
	hedge := fs.Duration("hedge", 0, "router: hedged-retry delay — duplicate a request to the shard's next backend if the owner has not answered within this delay (0 disables)")

	if err := fs.Parse(args); err != nil {
		return 2
	}
	fatalf := func(format string, fargs ...any) int {
		fmt.Fprintf(stderr, "aptserved: "+format+"\n", fargs...)
		return 2
	}
	if fs.NArg() != 0 {
		return fatalf("unexpected arguments %q", fs.Args())
	}
	// A flag the chosen mode would ignore is a usage error, not a no-op.
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	for _, name := range []string{"backends", "hedge"} {
		if set[name] && !*router {
			return fatalf("-%s needs -router", name)
		}
	}

	tel := telemetry.New(telemetry.NewRegistry(), nil)
	var accessW *telemetry.TraceWriter
	if *accessLog != "" {
		if *accessLog == "-" {
			accessW = telemetry.NewTraceWriter(stderr)
		} else {
			f, err := os.OpenFile(*accessLog, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				return fatalf("access-log: %v", err)
			}
			defer f.Close()
			accessW = telemetry.NewTraceWriter(f)
		}
	}

	if *router {
		var addrs []string
		for _, a := range strings.Split(*backends, ",") {
			if a = strings.TrimSpace(a); a != "" {
				addrs = append(addrs, a)
			}
		}
		if len(addrs) == 0 {
			return fatalf("-router needs -backends")
		}
		rt := route.New(route.Config{
			Backends:   addrs,
			HedgeDelay: *hedge,
			Telemetry:  tel,
			AccessLog:  accessW,
		})
		return runDaemon(daemon{
			handler:  rt,
			drain:    rt.Drain,
			dumpName: "router metrics",
			dump:     func() any { return tel.Metrics().Snapshot() },
			metrics:  tel.Metrics(),
			prefix:   "route",
		}, *addr, *portFile, fmt.Sprintf("routing on %%s across %d backends", len(addrs)), stdout, stderr)
	}

	cfg := serve.Config{
		Workers:       *workers,
		QueryTimeout:  *queryTimeout,
		MaxDeadline:   *maxDeadline,
		MaxConcurrent: *concurrency,
		QueueDepth:    *queue,
		DFAShardCap:   *shardCap,
		MemoShardCap:  *shardCap,
		MaxQueries:    *maxQueries,
		VerifyProofs:  *verify,
		FlightK:       *flightK,
		FlightRing:    *flightRing,
		Telemetry:     tel,
		AccessLog:     accessW,
	}
	srv := serve.New(cfg)
	return runDaemon(daemon{
		handler:  srv,
		drain:    srv.Drain,
		dumpName: "flight recorder",
		dump:     func() any { return srv.FlightSnapshot() },
		metrics:  tel.Metrics(),
		prefix:   "serve",
	}, *addr, *portFile, "listening on %s", stdout, stderr)
}

// daemon is what the process lifecycle needs from a serving tier: the
// single-node server and the router each fill one in.
type daemon struct {
	handler  http.Handler
	drain    func(context.Context) error
	dumpName string     // names the SIGQUIT dump in its stderr header
	dump     func() any // the SIGQUIT payload, JSON-encoded to stderr
	// metrics is the registry the tier reports into, its lifecycle counts
	// under prefix (prefix.requests, .completed, .shed, .refused_draining).
	metrics *telemetry.Registry
	prefix  string
}

// runDaemon listens on addr, announces itself with banner (a format taking
// the bound address), and serves until SIGTERM/SIGINT; then it drains
// in-flight requests and exits 0 on a clean drain.  SIGQUIT dumps d.dump to
// stderr and keeps serving — the "what just got slow?" escape hatch for a
// live daemon.
func runDaemon(d daemon, addr, portFile, banner string, stdout, stderr io.Writer) int {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		fmt.Fprintf(stderr, "aptserved: listen: %v\n", err)
		return 2
	}
	if portFile != "" {
		if err := os.WriteFile(portFile, []byte(ln.Addr().String()), 0o644); err != nil {
			fmt.Fprintf(stderr, "aptserved: port-file: %v\n", err)
			return 2
		}
	}
	fmt.Fprintf(stdout, "aptserved: "+banner+"\n", ln.Addr())

	hs := &http.Server{Handler: d.handler}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()

	quit := make(chan os.Signal, 1)
	signal.Notify(quit, syscall.SIGQUIT)
	quitDone := make(chan struct{})
	go func() {
		defer close(quitDone)
		for range quit {
			enc, err := json.MarshalIndent(d.dump(), "", "  ")
			if err != nil {
				fmt.Fprintf(stderr, "aptserved: %s dump: %v\n", d.dumpName, err)
				continue
			}
			fmt.Fprintf(stderr, "aptserved: %s dump (SIGQUIT)\n%s\n", d.dumpName, enc)
		}
	}()
	defer func() { signal.Stop(quit); close(quit); <-quitDone }()

	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()

	select {
	case err := <-errc:
		fmt.Fprintf(stderr, "aptserved: serve: %v\n", err)
		return 1
	case <-ctx.Done():
	}
	stop() // a second signal kills immediately

	fmt.Fprintln(stdout, "aptserved: draining")
	drainCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	drainErr := d.drain(drainCtx)
	if err := hs.Shutdown(drainCtx); err != nil && drainErr == nil {
		drainErr = err
	}
	c := d.metrics.Snapshot().Counters
	fmt.Fprintf(stdout, "aptserved: drained: %d accepted, %d completed, %d shed, %d refused during drain\n",
		c[d.prefix+".requests"], c[d.prefix+".completed"], c[d.prefix+".shed"], c[d.prefix+".refused_draining"])
	if drainErr != nil {
		fmt.Fprintf(stderr, "aptserved: drain: %v\n", drainErr)
		return 1
	}
	return 0
}
