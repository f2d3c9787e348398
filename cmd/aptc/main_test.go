package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/automata"
	"repro/internal/pathexpr"
)

// TestListPrintsLibraries: -list enumerates every builtin library, sorted.
func TestListPrintsLibraries(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-list"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit = %d\nstderr: %s", code, stderr.String())
	}
	out := stdout.String()
	for name := range libraries {
		if !strings.Contains(out, name) {
			t.Errorf("-list output missing %q", name)
		}
	}
}

// TestLibraryModeRoundTrip compiles a builtin library with -verify and then
// confirms the written artifact preseeds a cache that answers a known
// decision without compiling.
func TestLibraryModeRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "llbt.aptc")
	var stdout, stderr bytes.Buffer
	code := run([]string{"-library", "LeafLinkedBinaryTree", "-o", path, "-verify"}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit = %d\nstdout: %s\nstderr: %s", code, stdout.String(), stderr.String())
	}
	if !strings.Contains(stdout.String(), "round-trip ok") {
		t.Errorf("missing verify confirmation: %s", stdout.String())
	}

	art, err := automata.LoadArtifact(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(art.DFAs) == 0 || len(art.Ops) == 0 {
		t.Fatalf("artifact empty: %d DFAs, %d ops", len(art.DFAs), len(art.Ops))
	}
	cache := automata.NewSharedCache(0, 0, 0)
	dfas, ops := cache.Preseed(art)
	if dfas != len(art.DFAs) || ops != len(art.Ops) {
		t.Errorf("Preseed inserted %d/%d DFAs, %d/%d ops", dfas, len(art.DFAs), ops, len(art.Ops))
	}
	// ε ⊆ ε over the library alphabet is among the precomputed pairs.
	alpha := automata.NewAlphabet(art.Alphabets[0]...)
	eps := pathexpr.Intern(pathexpr.Eps)
	if ok, err := cache.Includes(eps, eps, alpha); err != nil || !ok {
		t.Errorf("Includes(ε, ε) = %v, %v on the preseeded cache", ok, err)
	}
	if st := cache.Stats(); st.Compiles != 0 {
		t.Errorf("preseeded cache compiled %d DFAs answering a precomputed decision", st.Compiles)
	}
}

// TestReplayModeRoundTrip: -program/-queries replays a workload through the
// engine and the snapshot verifies byte-identical.
func TestReplayModeRoundTrip(t *testing.T) {
	dir := t.TempDir()
	queries := filepath.Join(dir, "q.txt")
	if err := os.WriteFile(queries, []byte("# the §3.3 pair\nbetween S T\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "replay.aptc")
	var stdout, stderr bytes.Buffer
	code := run([]string{
		"-program", "../../testdata/section33.c", "-queries", queries,
		"-o", path, "-verify",
	}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit = %d\nstdout: %s\nstderr: %s", code, stdout.String(), stderr.String())
	}
	if !strings.Contains(stdout.String(), "round-trip ok") {
		t.Errorf("missing verify confirmation: %s", stdout.String())
	}
	art, err := automata.LoadArtifact(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(art.DFAs) == 0 {
		t.Error("replay artifact holds no DFAs")
	}
}

// TestUsageErrors: mode and output validation exits 2 without writing.
func TestUsageErrors(t *testing.T) {
	out := filepath.Join(t.TempDir(), "x.aptc")
	for name, args := range map[string][]string{
		"no output":           {"-library", "BinaryTree"},
		"no mode":             {"-o", out},
		"two modes":           {"-library", "BinaryTree", "-axioms", "a.txt", "-o", out},
		"unknown library":     {"-library", "NoSuchStructure", "-o", out},
		"replay sans queries": {"-program", "../../testdata/section33.c", "-o", out},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 {
			t.Errorf("%s: exit = %d, want 2 (stderr: %s)", name, code, stderr.String())
		}
		if _, err := os.Stat(out); err == nil {
			t.Errorf("%s: artifact was written despite the usage error", name)
			os.Remove(out)
		}
	}
}

// TestVerifyCatchesCorruption: a truncated artifact fails -verify… indirectly
// — verification happens on the freshly written file, so corruption is
// simulated by checking LoadArtifact rejects a damaged copy of a good one.
func TestVerifyCatchesCorruption(t *testing.T) {
	dir := t.TempDir()
	good := filepath.Join(dir, "good.aptc")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-library", "BinaryTree", "-o", good}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit = %d\nstderr: %s", code, stderr.String())
	}
	blob, err := os.ReadFile(good)
	if err != nil {
		t.Fatal(err)
	}
	blob[len(blob)-1] ^= 0x40
	bad := filepath.Join(dir, "bad.aptc")
	if err := os.WriteFile(bad, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := automata.LoadArtifact(bad); err == nil {
		t.Fatal("LoadArtifact accepted a corrupted artifact")
	}
}
