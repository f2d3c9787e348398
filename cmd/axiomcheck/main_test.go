package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func runCheck(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

func TestBuiltinFamiliesHold(t *testing.T) {
	for _, family := range []string{"list", "ring", "tree", "leaf-linked-tree", "sparse"} {
		code, out, errOut := runCheck(t, "-family", family, "-trials", "5", "-size", "6")
		if code != 0 {
			t.Errorf("%s: exit = %d\n%s%s", family, code, out, errOut)
		}
		if !strings.Contains(out, "axioms hold") {
			t.Errorf("%s: unexpected output: %s", family, out)
		}
	}
}

// TestViolatedAxiomExitsOne: the list axioms include acyclicity, which a
// ring violates on every instance.
func TestViolatedAxiomExitsOne(t *testing.T) {
	listAxioms := filepath.Join(t.TempDir(), "list.axioms")
	if err := os.WriteFile(listAxioms, []byte("A1: forall p, p.next+ <> p.eps\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	code, out, _ := runCheck(t, "-family", "ring", "-axioms", listAxioms, "-trials", "3", "-size", "5")
	if code != 1 {
		t.Fatalf("exit = %d, want 1\n%s", code, out)
	}
	if !strings.Contains(out, "VIOLATED") {
		t.Errorf("missing violation report: %s", out)
	}
}

// TestInconsistentSetRefused: a statically contradictory axiom set exits 1
// before any instance is built.
func TestInconsistentSetRefused(t *testing.T) {
	bad := filepath.Join(t.TempDir(), "bad.axioms")
	if err := os.WriteFile(bad, []byte("A1: forall p, p.(next|next.next) <> p.next\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	code, out, errOut := runCheck(t, "-family", "list", "-axioms", bad)
	if code != 1 {
		t.Fatalf("exit = %d, want 1\n%s%s", code, out, errOut)
	}
	if !strings.Contains(out, "statically inconsistent") {
		t.Errorf("stdout: %s", out)
	}
	if !strings.Contains(errOut, "self-contradictory") {
		t.Errorf("stderr lacks the diagnostic: %s", errOut)
	}
}

// TestProductOverBudgetDoesNotPanic: both sides of the axiom compile
// within the state budget but their product (lcm(127, 131) = 16,637
// states) does not.  The static check must warn and go on, not panic.
func TestProductOverBudgetDoesNotPanic(t *testing.T) {
	side := func(n int) string {
		return "p.(" + strings.TrimSuffix(strings.Repeat("next.", n), ".") + ")*"
	}
	axioms := filepath.Join(t.TempDir(), "big.axioms")
	src := "A1: forall p, " + side(127) + " <> " + side(131) + "\n"
	if err := os.WriteFile(axioms, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	code, out, errOut := runCheck(t, "-family", "list", "-axioms", axioms, "-trials", "2", "-size", "4")
	if !strings.Contains(errOut, "too large to compile; consistency not checked") {
		t.Fatalf("stderr lacks the over-budget warning (exit %d):\n%s%s", code, out, errOut)
	}
	if strings.Contains(out, "statically inconsistent") {
		t.Errorf("an undecided product refused the set: %s", out)
	}
	// Both sides hold ε, so the model check itself finds the violation.
	if code != 1 || !strings.Contains(out, "VIOLATED") {
		t.Errorf("exit = %d, want 1 with a violation report\n%s", code, out)
	}
}

// TestMaintain: listops.c's insertAfter preserves the list axioms;
// makeCycle breaks acyclicity, so -maintain must exit 1.
func TestMaintain(t *testing.T) {
	src := filepath.Join("..", "..", "testdata", "listops.c")
	code, out, errOut := runCheck(t, "-family", "list", "-maintain", "insertAfter", "-src", src, "-trials", "5")
	if code != 0 {
		t.Fatalf("insertAfter: exit = %d\n%s%s", code, out, errOut)
	}
	if !strings.Contains(out, "maintains all") {
		t.Errorf("insertAfter output: %s", out)
	}

	code, out, _ = runCheck(t, "-family", "list", "-maintain", "makeCycle", "-src", src, "-trials", "5")
	if code != 1 {
		t.Fatalf("makeCycle: exit = %d, want 1\n%s", code, out)
	}
}

func TestUsageErrors(t *testing.T) {
	if code, _, _ := runCheck(t); code != 2 {
		t.Errorf("no -family: exit = %d, want 2", code)
	}
	if code, _, _ := runCheck(t, "-family", "nope"); code != 2 {
		t.Errorf("unknown family: exit = %d, want 2", code)
	}
	if code, _, _ := runCheck(t, "-family", "list", "-maintain", "f"); code != 2 {
		t.Errorf("-maintain without -src: exit = %d, want 2", code)
	}
	if code, _, _ := runCheck(t, "-family", "list", "-axioms", "does-not-exist"); code != 2 {
		t.Errorf("missing axiom file: exit = %d, want 2", code)
	}
	bad := filepath.Join(t.TempDir(), "syntax.axioms")
	if err := os.WriteFile(bad, []byte("not an axiom\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if code, _, errOut := runCheck(t, "-family", "list", "-axioms", bad); code != 2 {
		t.Errorf("unparsable axiom file: exit = %d, want 2 (%s)", code, errOut)
	}
}
