package lint

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/heap/oracle"
)

// Soundness oracle for the path-sensitivity layer (wired as `make
// race-guards`): every guard-upgraded verdict claims that two accesses lie
// on mutually exclusive paths.  The oracle checks that claim against ground
// truth — the bounded small-heap sweep in internal/heap/oracle enumerates
// every conforming concrete heap shape up to a bound, runs the function
// concretely under every root and boolean input, and asserts that no single
// execution ever reaches both labeled accesses.  Adversarial variants
// (guard variable reassigned between the branches; same-polarity guards)
// must NOT be upgraded, and the oracle demonstrates a concrete run reaching
// both labels — evidence the upgrade would have been unsound had the
// analysis claimed it.

type oracleCase struct {
	name string
	src  string
	fn   string
	// labelA and labelB mark the access pair the guard layer judges.
	labelA, labelB string
	// wantUpgrade: the lint run must (or must not) produce a
	// guard-upgraded diagnostic for this program.
	wantUpgrade bool
	// maxVertices bounds the heap enumeration.
	maxVertices int
}

var oracleCases = []oracleCase{
	{
		// The seeded stale-handle flip: update under fix, use under !fix.
		name: "stale-exclusive",
		src: `
struct N {
	struct N *next;
	int v;
	axioms {
		A1: forall p, p.next+ <> p.eps;
	}
};

void patch(struct N *h, int fix) {
	struct N *t;
	t = h->next;
	if (t == NULL) {
		return;
	}
	if (fix) {
		U: h->next = t->next;
	}
	if (!fix) {
		S: h->v = t->v;
	}
}
`,
		fn: "patch", labelA: "U", labelB: "S",
		wantUpgrade: true, maxVertices: 3,
	},
	{
		// Reassigning the guard variable between the branches kills the
		// exclusivity: with fix=1 both U and S execute.  The versioned
		// predicate interner must keep this a Maybe.
		name: "stale-reassigned-var",
		src: `
struct N {
	struct N *next;
	int v;
	axioms {
		A1: forall p, p.next+ <> p.eps;
	}
};

void patch(struct N *h, int fix) {
	struct N *t;
	t = h->next;
	if (t == NULL) {
		return;
	}
	if (fix) {
		U: h->next = t->next;
	}
	fix = 0;
	if (!fix) {
		S: h->v = t->v;
	}
}
`,
		fn: "patch", labelA: "U", labelB: "S",
		wantUpgrade: false, maxVertices: 3,
	},
	{
		// Same-polarity guards are correlated, not exclusive: both branches
		// run whenever fix is set.  No conflict, no upgrade.
		name: "stale-same-polarity",
		src: `
struct N {
	struct N *next;
	int v;
	axioms {
		A1: forall p, p.next+ <> p.eps;
	}
};

void patch(struct N *h, int fix) {
	struct N *t;
	t = h->next;
	if (t == NULL) {
		return;
	}
	if (fix) {
		U: h->next = t->next;
	}
	if (fix) {
		S: h->v = t->v;
	}
}
`,
		fn: "patch", labelA: "U", labelB: "S",
		wantUpgrade: false, maxVertices: 3,
	},
	{
		// The update made through a called function: cut's store to next
		// stales t only when fix is set, and t is used only when it is not.
		name: "stale-call-exclusive",
		src: `
struct N {
	struct N *next;
	int v;
	axioms {
		A1: forall p, p.next+ <> p.eps;
	}
};

void cut(struct N *h) {
	h->next = NULL;
}

void patch(struct N *h, int fix) {
	struct N *t;
	t = h->next;
	if (t == NULL) {
		return;
	}
	if (fix) {
		U: h->v = 0;
		cut(h);
	}
	if (!fix) {
		S: h->v = t->v;
	}
}
`,
		fn: "patch", labelA: "U", labelB: "S",
		wantUpgrade: true, maxVertices: 3,
	},
	{
		// The same call under same-polarity guards: both branches run
		// whenever fix is set, so the stale use is real.
		name: "stale-call-same-polarity",
		src: `
struct N {
	struct N *next;
	int v;
	axioms {
		A1: forall p, p.next+ <> p.eps;
	}
};

void cut(struct N *h) {
	h->next = NULL;
}

void patch(struct N *h, int fix) {
	struct N *t;
	t = h->next;
	if (t == NULL) {
		return;
	}
	if (fix) {
		U: h->v = 0;
		cut(h);
	}
	if (fix) {
		S: h->v = t->v;
	}
}
`,
		fn: "patch", labelA: "U", labelB: "S",
		wantUpgrade: false, maxVertices: 3,
	},
	{
		// The seeded DOALL flip: the loop-invariant mode picks exactly one
		// of the two iteration bodies for the whole traversal.
		name: "doall-exclusive",
		src: `
struct Node {
	struct Node *next;
	struct Node *jump;
	int v;
	axioms {
		A1: forall p, p.next+ <> p.eps;
	}
};

void sweep(struct Node *h, int mode) {
	struct Node *p;
	struct Node *r;
	int t;
	t = 0;
	p = h;
	while (p != NULL) {
		if (mode) {
			A: p->v = 1;
		} else {
			r = p->jump;
			if (r != NULL) {
				B: t = t + r->v;
			}
		}
		p = p->next;
	}
}
`,
		fn: "sweep", labelA: "A", labelB: "B",
		wantUpgrade: true, maxVertices: 3,
	},
}

func TestGuardUpgradeOracle(t *testing.T) {
	for _, tc := range oracleCases {
		t.Run(tc.name, func(t *testing.T) {
			prog := parse(t, tc.src)

			diags, err := NewDriver(nil).Run(tc.name+".c", prog)
			if err != nil {
				t.Fatal(err)
			}
			upgraded := false
			for _, d := range diags {
				if d.UpgradedFromMaybe {
					upgraded = true
				}
			}
			if upgraded != tc.wantUpgrade {
				t.Fatalf("guard upgrade = %v, want %v; diagnostics:\n%v", upgraded, tc.wantUpgrade, diags)
			}

			sweep, err := oracle.SweepLabels(prog, tc.fn, tc.labelA, tc.labelB, tc.maxVertices)
			if err != nil {
				t.Fatal(err)
			}
			bothReached, conflict := sweep.BothReached, sweep.Conflict
			if tc.wantUpgrade {
				// The upgrade claims mutual exclusivity — no concrete run
				// may reach both labels, and in particular no conflicting
				// access pair may exist.  This is the soundness direction.
				if bothReached {
					t.Errorf("UNSOUND: verdict upgraded to definite, but a concrete run reached both %s and %s", tc.labelA, tc.labelB)
				}
				if conflict {
					t.Errorf("UNSOUND: verdict upgraded to definite, but a concrete run has a conflicting access pair")
				}
			} else if !bothReached {
				// Teeth check: the adversarial variants really do have a
				// path reaching both accesses, so an upgrade here would
				// have been caught by the clause above.
				t.Errorf("adversarial case never reached both %s and %s — the oracle is vacuous for it", tc.labelA, tc.labelB)
			}
		})
	}
}

// TestOracleCorpusUpgradesAreExclusive closes the loop on the seeded
// corpus: the two committed guard-upgrade programs are byte-for-byte the
// sources the oracle sweeps, so the committed goldens are covered by the
// same ground truth.
func TestOracleCorpusUpgradesAreExclusive(t *testing.T) {
	// guarded_stale.c and guarded_doall.c embed the same function bodies as
	// the stale-exclusive and doall-exclusive oracle cases modulo the
	// oracle's labels; a quick
	// structural check keeps them from drifting apart silently.
	for _, probe := range []struct{ file, needle string }{
		{"guarded_stale.c", "h->next = t->next;"},
		{"guarded_doall.c", "r = p->jump;"},
	} {
		src := readCorpusFile(t, probe.file)
		if !strings.Contains(src, probe.needle) {
			t.Errorf("%s no longer contains %q — update the oracle cases to match", probe.file, probe.needle)
		}
	}
}

func readCorpusFile(t *testing.T, name string) string {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "..", "testdata", "lint", name))
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}
