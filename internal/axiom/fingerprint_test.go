package axiom

import (
	"hash/fnv"
	"testing"
)

// resetRegistryForTest swaps the process-global set-ID registry for a fresh
// one and returns a restore function, simulating a second process that
// never exchanged interning state with the first.  Existing Sets keep their
// memoized IDs (as live objects in a real process would); Sets constructed
// after the swap intern against the fresh registry.
func resetRegistryForTest(t *testing.T) func() {
	t.Helper()
	setIDs.mu.Lock()
	savedIDs, savedNext := setIDs.ids, setIDs.next
	setIDs.ids = make(map[string]uint64)
	setIDs.next = 0
	setIDs.mu.Unlock()
	return func() {
		setIDs.mu.Lock()
		setIDs.ids, setIDs.next = savedIDs, savedNext
		setIDs.mu.Unlock()
	}
}

// TestFingerprintStableAcrossRegistries is the cross-process identity
// contract behind the cluster router: axiom.Set.ID() is process-local by
// design (assigned in interning order by an append-only registry), so two
// processes that build the same sets in different orders disagree on IDs —
// but they must agree on Fingerprint64, which is a pure function of the
// canonical Key.  Ring placement keys on fingerprints for exactly this
// reason.
func TestFingerprintStableAcrossRegistries(t *testing.T) {
	mkTree := func() *Set { return LeafLinkedBinaryTree() }
	mkList := func() *Set {
		s := NewSet("List")
		s.Add(MustParse("forall p <> q, p.next <> q.next"))
		s.Add(MustParse("forall p, p.next+ <> p.eps"))
		return s
	}

	// "Process 1" interns tree first, then list.
	restore1 := resetRegistryForTest(t)
	tree1, list1 := mkTree(), mkList()
	treeID1, listID1 := tree1.ID(), list1.ID()
	treeFP1, listFP1 := tree1.Fingerprint64(), list1.Fingerprint64()
	restore1()

	// "Process 2" interns the same sets in the opposite order.
	restore2 := resetRegistryForTest(t)
	list2, tree2 := mkList(), mkTree()
	listID2, treeID2 := list2.ID(), tree2.ID()
	listFP2, treeFP2 := list2.Fingerprint64(), tree2.Fingerprint64()
	restore2()

	if tree1.Key() != tree2.Key() || list1.Key() != list2.Key() {
		t.Fatal("independently constructed sets disagree on canonical Key")
	}
	// The registries assigned IDs in opposite orders, so at least one of the
	// two sets carries different IDs across the "processes" — the property
	// that makes raw IDs unusable on the wire.
	if treeID1 == treeID2 && listID1 == listID2 {
		t.Errorf("IDs unexpectedly agree across independently seeded registries: tree %d/%d list %d/%d",
			treeID1, treeID2, listID1, listID2)
	}
	// Fingerprints are content hashes: they must agree exactly.
	if treeFP1 != treeFP2 {
		t.Errorf("tree fingerprints differ across registries: %#x vs %#x", treeFP1, treeFP2)
	}
	if listFP1 != listFP2 {
		t.Errorf("list fingerprints differ across registries: %#x vs %#x", listFP1, listFP2)
	}
	if treeFP1 == listFP1 {
		t.Errorf("distinct sets share fingerprint %#x", treeFP1)
	}
}

// TestFingerprint64IsFNV64aOfKey pins the fingerprint to the reference
// FNV-64a of the canonical Key, so a backend written in any language (or
// any future rewrite of this one) can reproduce ring placement.
func TestFingerprint64IsFNV64aOfKey(t *testing.T) {
	for _, set := range []*Set{LeafLinkedBinaryTree(), SparseMatrixCore()} {
		ref := fnv.New64a()
		ref.Write([]byte(set.Key()))
		if got, want := set.Fingerprint64(), ref.Sum64(); got != want {
			t.Errorf("%s: Fingerprint64 = %#x, want FNV-64a(Key) = %#x", set.StructName, got, want)
		}
		if got, want := fingerprint64ForKey(set.Key()), set.Fingerprint64(); got != want {
			t.Errorf("%s: fingerprint64ForKey disagrees with Set.Fingerprint64: %#x vs %#x", set.StructName, got, want)
		}
	}
}

// TestFingerprintIsNameAndOrderBlind: fingerprints identify the theory, not
// its presentation — renaming axioms or permuting declaration order must
// not move a set to a different backend.
func TestFingerprintIsNameAndOrderBlind(t *testing.T) {
	a := NewSet("A")
	a.Add(MustParse("X: forall p, p.L <> p.R"))
	a.Add(MustParse("Y: forall p <> q, p.(L|R) <> q.(L|R)"))

	b := NewSet("B (different name)")
	b.Add(MustParse("Q9: forall p <> q, p.(L|R) <> q.(L|R)"))
	b.Add(MustParse("Z3: forall p, p.L <> p.R"))

	if a.Fingerprint64() != b.Fingerprint64() {
		t.Errorf("renamed/permuted set changed fingerprint: %#x vs %#x", a.Fingerprint64(), b.Fingerprint64())
	}
}

// TestSourceRoundTripsFingerprint: the Source rendering must reconstruct an
// equal-Key (hence equal-fingerprint) set through ParseSet — the raw-query
// wire mode ships axiom sets as exactly this text.
func TestSourceRoundTripsFingerprint(t *testing.T) {
	for _, set := range []*Set{LeafLinkedBinaryTree(), SparseMatrixCore(), SparseMatrix()} {
		back, err := ParseSet(set.StructName, set.Source())
		if err != nil {
			t.Fatalf("%s: ParseSet(Source): %v\nsource:\n%s", set.StructName, err, set.Source())
		}
		if back.Key() != set.Key() {
			t.Errorf("%s: Source round trip changed Key", set.StructName)
		}
		if back.Fingerprint64() != set.Fingerprint64() {
			t.Errorf("%s: Source round trip changed fingerprint", set.StructName)
		}
	}
}
