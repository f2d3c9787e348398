package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/telemetry"
	"repro/internal/wire"
)

// syncBuffer lets the test read stderr while runServer's goroutines (the
// SIGQUIT dumper, the access log) are still writing to it.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestServerSmokeAndDrain boots the daemon in-process on a loopback port,
// round-trips a batch, checks both metrics endpoints, takes a SIGQUIT
// flight-recorder dump, and then delivers a real SIGTERM: the run must
// drain cleanly and exit 0.  (The signals are safe to send to our own test
// process because runServer owns them at that point.)
func TestServerSmokeAndDrain(t *testing.T) {
	dir := t.TempDir()
	portFile := filepath.Join(dir, "port")
	accessLog := filepath.Join(dir, "access.jsonl")
	var stdout bytes.Buffer
	var stderr syncBuffer
	done := make(chan int, 1)
	go func() {
		done <- run([]string{
			"-addr", "127.0.0.1:0", "-port-file", portFile, "-workers", "2",
			"-access-log", accessLog, "-flight-k", "4", "-flight-ring", "16",
		}, &stdout, &stderr)
	}()

	var base string
	deadline := time.Now().Add(10 * time.Second)
	for {
		if b, err := os.ReadFile(portFile); err == nil && len(b) > 0 {
			base = "http://" + string(b)
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("server never wrote %s (stderr: %s)", portFile, stderr.String())
		}
		time.Sleep(5 * time.Millisecond)
	}

	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d", resp.StatusCode)
	}

	src, err := os.ReadFile("../../testdata/section33.c")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := json.Marshal(wire.BatchRequest{
		Program: string(src), Fn: "subr", Queries: []string{"between S T"},
	})
	resp, err = http.Post(base+"/v1/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var br wire.BatchResponse
	if err := json.NewDecoder(resp.Body).Decode(&br); err != nil {
		t.Fatalf("batch decode: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || len(br.Results) == 0 {
		t.Fatalf("batch = %d with %d results", resp.StatusCode, len(br.Results))
	}
	for i, r := range br.Results {
		if r.Result != "No" {
			t.Errorf("results[%d] = %q (%s), want No", i, r.Result, r.Reason)
		}
	}

	// /metrics serves Prometheus text exposition; the JSON snapshot moved
	// to /metrics.json.
	resp, err = http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	prom, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("metrics Content-Type = %q", ct)
	}
	if err := telemetry.ValidatePrometheus(prom); err != nil {
		t.Errorf("/metrics is not valid exposition: %v", err)
	}
	if !strings.Contains(string(prom), "apt_serve_requests_total 1") {
		t.Errorf("/metrics lacks apt_serve_requests_total 1:\n%s", prom)
	}

	resp, err = http.Get(base + "/metrics.json")
	if err != nil {
		t.Fatal(err)
	}
	var snap struct {
		Counters map[string]int64 `json:"counters"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatalf("metrics.json decode: %v", err)
	}
	resp.Body.Close()
	if snap.Counters["serve.requests"] != 1 {
		t.Errorf("serve.requests = %d, want 1", snap.Counters["serve.requests"])
	}

	// SIGQUIT dumps the flight recorder to stderr without stopping the
	// server; the one batch above is its slowest request.
	if err := syscall.Kill(os.Getpid(), syscall.SIGQUIT); err != nil {
		t.Fatal(err)
	}
	dumpDeadline := time.Now().Add(10 * time.Second)
	for !strings.Contains(stderr.String(), "flight recorder dump") {
		if time.Now().After(dumpDeadline) {
			t.Fatalf("no flight dump after SIGQUIT (stderr: %s)", stderr.String())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if dump := stderr.String(); !strings.Contains(dump, `"slowest"`) || !strings.Contains(dump, `"trace_id"`) {
		t.Errorf("flight dump lacks slowest traces:\n%s", dump)
	}
	if resp, err := http.Get(base + "/healthz"); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("server not healthy after SIGQUIT: %v %v", err, resp)
	} else {
		resp.Body.Close()
	}

	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case code := <-done:
		if code != 0 {
			t.Fatalf("run exited %d (stderr: %s)", code, stderr.String())
		}
	case <-time.After(30 * time.Second):
		t.Fatal("server did not drain after SIGTERM")
	}
	out := stdout.String()
	for _, want := range []string{"listening on", "draining", "drained: 1 accepted, 1 completed"} {
		if !strings.Contains(out, want) {
			t.Errorf("stdout missing %q:\n%s", want, out)
		}
	}

	// The access log holds one JSONL line per request served above.
	logData, err := os.ReadFile(accessLog)
	if err != nil {
		t.Fatalf("access log: %v", err)
	}
	var sawBatch bool
	for _, line := range strings.Split(strings.TrimSpace(string(logData)), "\n") {
		var entry struct {
			Ev     string `json:"ev"`
			Path   string `json:"path"`
			Status int    `json:"status"`
			DurUS  int64  `json:"dur_us"`
		}
		if err := json.Unmarshal([]byte(line), &entry); err != nil {
			t.Fatalf("access log line %q: %v", line, err)
		}
		if entry.Ev != "http_access" {
			t.Errorf("access log ev = %q", entry.Ev)
		}
		if entry.Path == "/v1/batch" && entry.Status == http.StatusOK && entry.DurUS > 0 {
			sawBatch = true
		}
	}
	if !sawBatch {
		t.Errorf("access log never recorded the batch request:\n%s", logData)
	}
}

// TestClusterSmokeAndDrain boots two backend daemons and a router daemon
// in-process — three run() instances in one process, exactly as three
// aptserved invocations would run on one host — sends a batch through the
// router, and then delivers a single SIGTERM: every instance registered the
// signal, so all three must drain cleanly and exit 0.
func TestClusterSmokeAndDrain(t *testing.T) {
	dir := t.TempDir()

	type instance struct {
		stdout *syncBuffer
		stderr *syncBuffer
		done   chan int
	}
	start := func(args ...string) *instance {
		inst := &instance{stdout: &syncBuffer{}, stderr: &syncBuffer{}, done: make(chan int, 1)}
		go func() { inst.done <- run(args, inst.stdout, inst.stderr) }()
		return inst
	}
	waitPort := func(portFile string, inst *instance) string {
		deadline := time.Now().Add(10 * time.Second)
		for {
			if b, err := os.ReadFile(portFile); err == nil && len(b) > 0 {
				return "http://" + string(b)
			}
			if time.Now().After(deadline) {
				t.Fatalf("no port file %s (stderr: %s)", portFile, inst.stderr.String())
			}
			time.Sleep(5 * time.Millisecond)
		}
	}

	var backends []*instance
	var backendBases []string
	for i := 0; i < 2; i++ {
		portFile := filepath.Join(dir, "backend"+string(rune('1'+i)))
		inst := start("-addr", "127.0.0.1:0", "-port-file", portFile, "-workers", "1")
		backends = append(backends, inst)
		backendBases = append(backendBases, waitPort(portFile, inst))
	}

	routerPort := filepath.Join(dir, "router")
	router := start("-router",
		"-backends", strings.TrimPrefix(backendBases[0], "http://")+","+strings.TrimPrefix(backendBases[1], "http://"),
		"-addr", "127.0.0.1:0", "-port-file", routerPort)
	routerBase := waitPort(routerPort, router)
	if !strings.Contains(router.stdout.String(), "routing on") {
		t.Errorf("router stdout missing banner:\n%s", router.stdout.String())
	}

	src, err := os.ReadFile("../../testdata/section33.c")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := json.Marshal(wire.BatchRequest{
		Program: string(src), Fn: "subr", Queries: []string{"between S T"},
	})
	resp, err := http.Post(routerBase+"/v1/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var br wire.BatchResponse
	if err := json.NewDecoder(resp.Body).Decode(&br); err != nil {
		t.Fatalf("batch decode: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || len(br.Results) == 0 {
		t.Fatalf("batch via router = %d with %d results", resp.StatusCode, len(br.Results))
	}
	for i, r := range br.Results {
		if r.Result != "No" {
			t.Errorf("results[%d] = %q (%s), want No", i, r.Result, r.Reason)
		}
	}
	via := resp.Header.Get("X-Apt-Backend")
	if via != backendBases[0] && via != backendBases[1] {
		t.Errorf("X-Apt-Backend = %q, want one of %v", via, backendBases)
	}

	// SIGQUIT: the router dumps its registry snapshot, the backends their
	// flight recorders — all without stopping service.
	if err := syscall.Kill(os.Getpid(), syscall.SIGQUIT); err != nil {
		t.Fatal(err)
	}
	dumpDeadline := time.Now().Add(10 * time.Second)
	for !strings.Contains(router.stderr.String(), "router metrics dump") {
		if time.Now().After(dumpDeadline) {
			t.Fatalf("no router metrics dump after SIGQUIT (stderr: %s)", router.stderr.String())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if dump := router.stderr.String(); !strings.Contains(dump, `route.backend_forwarded{backend=`) ||
		!strings.Contains(dump, `route.backend_up{backend=`) {
		t.Errorf("router metrics dump lacks the per-backend series:\n%s", dump)
	}

	// One SIGTERM reaches all three instances; each must drain and exit 0.
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	for i, inst := range append([]*instance{router}, backends...) {
		select {
		case code := <-inst.done:
			if code != 0 {
				t.Fatalf("instance %d exited %d (stderr: %s)", i, code, inst.stderr.String())
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("instance %d did not drain after SIGTERM", i)
		}
	}
	if out := router.stdout.String(); !strings.Contains(out, "drained: 1 accepted, 1 completed") {
		t.Errorf("router stdout missing drain summary:\n%s", out)
	}
}

func TestUsageErrors(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-no-such-flag"}, &stdout, &stderr); code != 2 {
		t.Errorf("unknown flag exited %d, want 2", code)
	}
	if code := run([]string{"-loadgen"}, &stdout, &stderr); code != 2 {
		t.Errorf("-loadgen (undefined flag) exited %d, want 2", code)
	}
	if code := run([]string{"stray"}, &stdout, &stderr); code != 2 {
		t.Errorf("stray argument exited %d, want 2", code)
	}
	if code := run([]string{"-router"}, &stdout, &stderr); code != 2 {
		t.Errorf("-router without -backends exited %d, want 2", code)
	}
	// Mode-specific flags the chosen mode would ignore are refused.
	if code := run([]string{"-backends", "a,b"}, &stdout, &stderr); code != 2 {
		t.Errorf("-backends without -router exited %d, want 2", code)
	}
	if code := run([]string{"-hedge", "25ms"}, &stdout, &stderr); code != 2 {
		t.Errorf("-hedge without -router exited %d, want 2", code)
	}
	if code := run([]string{"-preload", "x"}, &stdout, &stderr); code != 2 {
		t.Errorf("-preload (undefined flag) exited %d, want 2", code)
	}
}
