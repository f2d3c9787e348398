package automata

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"sort"
	"strings"
	"sync"

	"repro/internal/pathexpr"
)

// This file implements persisted automata artifacts: the on-disk form of a
// SharedCache working set.  An offline aptc run compiles an axiom library's
// DFAs and boolean language decisions once and serializes them; a serving
// process loads the artifact and preseeds its SharedCache, so the first
// query after boot hits warm tables instead of paying subset construction
// and minimization.
//
// Layout (all integers little-endian):
//
//	header (24 bytes):
//	  [0:4)   magic "APTC"
//	  [4:8)   format version (ArtifactVersion)
//	  [8:16)  payload length in bytes
//	  [16:24) FNV-64a checksum of the payload
//	payload:
//	  alphabets: count u32, then per alphabet: nsyms u32, per symbol len u32 + bytes
//	  exprs:     count u32, then per expr: len u32 + canonical-string bytes
//	  dfas:      count u32, then per DFA:
//	               alphaIdx u32, exprIdx u32, states u32, syms u32,
//	               accept bytes (states × u8), zero-pad to 4-byte file offset,
//	               trans (states × syms × i32)
//	  ops:       count u32, then per decision:
//	               op u8, value u8, pad u16, alphaIdx u32, xIdx u32, yIdx u32
//	  sigs:      count u32, then per axiom-set fingerprint: len u32 + bytes
//	  goals:     count u32, then per memoized prover verdict:
//	               sigIdx u32, xIdx u32, yIdx u32, form u8, result u8, pad u16,
//	               theorem len u32 + bytes,
//	               steps count u32, then per proof-tree node (pre-order):
//	                 rule u8, form u8, altOnLeft u8, starOnLeft u8,
//	                 xIdx u32, yIdx u32, suffixI i32, suffixJ i32,
//	                 altIndex i32, kids u32,
//	                 by/byT1/byT2/note: each len u32 + bytes
//	  replays:   count u32, then per replay workload:
//	               program len u32 + bytes, fn len u32 + bytes,
//	               query count u32, per query len u32 + bytes
//
// Interned expression and alphabet IDs are process-local, so the artifact
// never stores them: it stores canonical expression strings and symbol
// lists, which Preseed re-parses and re-interns in the loading process.

// ArtifactVersion is the current on-disk format version.  Loaders reject
// any other version: the format carries raw transition tables, and reading
// them under wrong layout assumptions would produce wrong verdicts, which
// is the one failure mode this layer must never have.
const ArtifactVersion = 2

var artifactMagic = [4]byte{'A', 'P', 'T', 'C'}

// ArtifactDFA is one compiled automaton in an artifact: indices into the
// artifact's alphabet and expression tables plus the dense tables
// themselves.  Snapshot and Preseed share Trans with live DFAs; treat it as
// frozen.
type ArtifactDFA struct {
	Alpha  int
	Expr   int
	Accept []bool
	Trans  []int32
}

// ArtifactOp is one memoized boolean language decision: op is the
// SharedCache opcode ('i' includes, 'd' disjoint, 'e' equivalent).
type ArtifactOp struct {
	Op    byte
	Value bool
	Alpha int
	X, Y  int
}

// ArtifactStep is one pre-order node of a serialized proof tree.  The
// automata layer treats it as opaque structure (the engine converts to and
// from prover.Step); X and Y index the artifact's expression table, and a
// node's Kids children follow it immediately in the flattened list.
type ArtifactStep struct {
	Rule, Form            uint8
	AltOnLeft, StarOnLeft bool
	X, Y                  int
	SuffixI, SuffixJ      int32
	AltIndex              int32
	Kids                  int
	By, ByT1, ByT2, Note  string
}

// ArtifactReplay is the workload a replay-mode artifact was compiled from:
// the program source, function, and raw query lines.  A serving process
// replays it through its own request path at boot, so every one-time
// first-request cost — first parse of that program text, first query
// expansion, first batch on the prewarmed engine — is paid before the
// listener opens rather than by the first client.
type ArtifactReplay struct {
	Program string
	Fn      string
	Queries []string
}

// ArtifactGoal is one memoized prover verdict, valid only under the axiom
// set whose fingerprint is Sigs[Sig]: a proved verdict is a theorem OF
// those axioms, so loaders must never seed it into a proof memo under any
// other axiom-set identity.  Result is 0 (proved, Steps carry the
// machine-checkable derivation) or 1 (not proved, Steps empty); exhausted
// search artifacts are never persisted.
type ArtifactGoal struct {
	Sig     int
	Form    uint8
	Result  uint8
	X, Y    int
	Theorem string
	Steps   []ArtifactStep
}

// Artifact is a decoded automata artifact, held in heap memory.
type Artifact struct {
	Alphabets [][]string
	Exprs     []string
	DFAs      []ArtifactDFA
	Ops       []ArtifactOp
	// Sigs are the axiom-set fingerprints (axiom.Set.Key renderings) the
	// goal verdicts below were proved under; Goals are the engine proof
	// memo's persisted definitive verdicts, each scoped to one fingerprint.
	Sigs  []string
	Goals []ArtifactGoal
	// Replays are the replay-mode workloads the artifact was compiled from,
	// for boot-time self-warming of the serving request path.
	Replays []ArtifactReplay

	prepOnce sync.Once
	prepped  *artifactPrep
}

// artifactPrep is the process-local re-interning of an artifact's symbol
// tables: alphabets and expression IDs.  Interned IDs are stable for the
// life of the process, so this is computed once per artifact — eagerly at
// load time on the boot path — and every Preseed (one per engine build)
// reuses it instead of re-parsing on a request's critical path.
type artifactPrep struct {
	alphas  []*Alphabet
	exprIDs []uint64 // 0 marks an expression that failed to re-parse
}

// prep returns the cached re-interning, computing it on first use.
func (a *Artifact) prep() *artifactPrep {
	a.prepOnce.Do(func() {
		p := &artifactPrep{
			alphas:  make([]*Alphabet, len(a.Alphabets)),
			exprIDs: make([]uint64, len(a.Exprs)),
		}
		for i, syms := range a.Alphabets {
			p.alphas[i] = NewAlphabet(syms...)
		}
		for i, s := range a.Exprs {
			var e pathexpr.Expr
			if s == (pathexpr.Empty{}).String() {
				// Parse has no syntax for the empty language; the canonical
				// rendering is handled directly.
				e = pathexpr.Empty{}
			} else {
				parsed, err := pathexpr.Parse(s)
				if err != nil {
					continue // exprIDs[i] stays 0: entries using it are skipped
				}
				e = parsed
			}
			p.exprIDs[i] = pathexpr.InternID(e)
		}
		a.prepped = p
	})
	return a.prepped
}

// PreparedExpr returns the re-parsed, re-interned expression at index i of
// the artifact's expression table, or false for an out-of-range index or an
// entry whose canonical string failed to parse (loaders skip entries built
// on it).
func (a *Artifact) PreparedExpr(i int) (pathexpr.Expr, bool) {
	p := a.prep()
	if i < 0 || i >= len(p.exprIDs) || p.exprIDs[i] == 0 {
		return nil, false
	}
	n := pathexpr.LookupID(p.exprIDs[i])
	if n == nil {
		return nil, false
	}
	return n.Expr(), true
}

// ExprInterner returns a function that maps a canonical expression string
// to its index in the artifact's expression table, appending it on first
// sight.  Writers appending sections to one artifact share its table this
// way.
func (a *Artifact) ExprInterner() func(string) int {
	idx := make(map[string]int, len(a.Exprs))
	for i, s := range a.Exprs {
		idx[s] = i
	}
	return func(s string) int {
		if i, ok := idx[s]; ok {
			return i
		}
		i := len(a.Exprs)
		idx[s] = i
		a.Exprs = append(a.Exprs, s)
		return i
	}
}

// Snapshot captures the cache's current working set — every compiled DFA
// and memoized boolean decision — as an Artifact, in deterministic order.
// Entries whose alphabet or expression identity cannot be reversed to a
// serializable form (possible only if they were interned by another
// interner) are skipped.
func (c *SharedCache) Snapshot() *Artifact {
	type dfaEnt struct {
		alphaKey string
		exprStr  string
		d        *DFA
	}
	type opEnt struct {
		op       byte
		val      bool
		alphaKey string
		x, y     string
	}
	var dents []dfaEnt
	var oents []opEnt
	exprStr := func(id uint64) (string, bool) {
		n := pathexpr.LookupID(id)
		if n == nil {
			return "", false
		}
		return n.String(), true
	}
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.RLock()
		for key, d := range sh.dfas {
			ak, ok1 := alphabetKeyByID(key.alpha)
			es, ok2 := exprStr(key.expr)
			if ok1 && ok2 {
				dents = append(dents, dfaEnt{alphaKey: ak, exprStr: es, d: d})
			}
		}
		for key, v := range sh.ops {
			ak, ok1 := alphabetKeyByID(key.alpha)
			xs, ok2 := exprStr(key.x)
			ys, ok3 := exprStr(key.y)
			if ok1 && ok2 && ok3 {
				oents = append(oents, opEnt{op: byte(key.op), val: v, alphaKey: ak, x: xs, y: ys})
			}
		}
		sh.mu.RUnlock()
	}
	sort.Slice(dents, func(i, j int) bool {
		if dents[i].alphaKey != dents[j].alphaKey {
			return dents[i].alphaKey < dents[j].alphaKey
		}
		return dents[i].exprStr < dents[j].exprStr
	})
	sort.Slice(oents, func(i, j int) bool {
		a, b := oents[i], oents[j]
		if a.op != b.op {
			return a.op < b.op
		}
		if a.alphaKey != b.alphaKey {
			return a.alphaKey < b.alphaKey
		}
		if a.x != b.x {
			return a.x < b.x
		}
		return a.y < b.y
	})

	art := &Artifact{}
	alphaIdx := make(map[string]int)
	internAlpha := func(key string) int {
		if i, ok := alphaIdx[key]; ok {
			return i
		}
		i := len(art.Alphabets)
		alphaIdx[key] = i
		var syms []string
		if key != "" {
			syms = strings.Split(key, " ")
		}
		art.Alphabets = append(art.Alphabets, syms)
		return i
	}
	internExpr := art.ExprInterner()
	for _, e := range dents {
		art.DFAs = append(art.DFAs, ArtifactDFA{
			Alpha:  internAlpha(e.alphaKey),
			Expr:   internExpr(e.exprStr),
			Accept: e.d.accept,
			Trans:  e.d.trans,
		})
	}
	for _, e := range oents {
		art.Ops = append(art.Ops, ArtifactOp{
			Op:    e.op,
			Value: e.val,
			Alpha: internAlpha(e.alphaKey),
			X:     internExpr(e.x),
			Y:     internExpr(e.y),
		})
	}
	return art
}

// payload serializes the artifact body (everything after the header).
func (a *Artifact) payload() ([]byte, error) {
	var buf []byte
	u32 := func(v int) {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(v))
	}
	str := func(s string) {
		u32(len(s))
		buf = append(buf, s...)
	}
	u32(len(a.Alphabets))
	for _, syms := range a.Alphabets {
		u32(len(syms))
		for _, s := range syms {
			str(s)
		}
	}
	u32(len(a.Exprs))
	for _, s := range a.Exprs {
		str(s)
	}
	u32(len(a.DFAs))
	for _, d := range a.DFAs {
		if d.Alpha < 0 || d.Alpha >= len(a.Alphabets) || d.Expr < 0 || d.Expr >= len(a.Exprs) {
			return nil, fmt.Errorf("artifact: DFA entry references out-of-range table index")
		}
		k := len(a.Alphabets[d.Alpha])
		if len(d.Trans) != len(d.Accept)*k {
			return nil, fmt.Errorf("artifact: DFA entry has %d transitions for %d states over %d symbols", len(d.Trans), len(d.Accept), k)
		}
		u32(d.Alpha)
		u32(d.Expr)
		u32(len(d.Accept))
		u32(k)
		for _, acc := range d.Accept {
			b := byte(0)
			if acc {
				b = 1
			}
			buf = append(buf, b)
		}
		// The header is 24 bytes (a multiple of 4), so aligning the offset
		// within the payload aligns the table within the file.
		for len(buf)%4 != 0 {
			buf = append(buf, 0)
		}
		for _, t := range d.Trans {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(t))
		}
	}
	u32(len(a.Ops))
	for _, op := range a.Ops {
		v := byte(0)
		if op.Value {
			v = 1
		}
		buf = append(buf, op.Op, v, 0, 0)
		u32(op.Alpha)
		u32(op.X)
		u32(op.Y)
	}
	u32(len(a.Sigs))
	for _, s := range a.Sigs {
		str(s)
	}
	u32(len(a.Goals))
	for _, g := range a.Goals {
		if g.Sig < 0 || g.Sig >= len(a.Sigs) || g.X < 0 || g.X >= len(a.Exprs) || g.Y < 0 || g.Y >= len(a.Exprs) {
			return nil, fmt.Errorf("artifact: goal entry references out-of-range table index")
		}
		if g.Result > 1 {
			return nil, fmt.Errorf("artifact: goal entry has non-definitive result %d", g.Result)
		}
		u32(g.Sig)
		u32(g.X)
		u32(g.Y)
		buf = append(buf, g.Form, g.Result, 0, 0)
		str(g.Theorem)
		u32(len(g.Steps))
		for _, st := range g.Steps {
			if st.X < 0 || st.X >= len(a.Exprs) || st.Y < 0 || st.Y >= len(a.Exprs) {
				return nil, fmt.Errorf("artifact: proof step references out-of-range expression index")
			}
			b := func(v bool) byte {
				if v {
					return 1
				}
				return 0
			}
			buf = append(buf, st.Rule, st.Form, b(st.AltOnLeft), b(st.StarOnLeft))
			u32(st.X)
			u32(st.Y)
			u32(int(st.SuffixI))
			u32(int(st.SuffixJ))
			u32(int(st.AltIndex))
			u32(st.Kids)
			str(st.By)
			str(st.ByT1)
			str(st.ByT2)
			str(st.Note)
		}
	}
	u32(len(a.Replays))
	for _, rp := range a.Replays {
		str(rp.Program)
		str(rp.Fn)
		u32(len(rp.Queries))
		for _, q := range rp.Queries {
			str(q)
		}
	}
	return buf, nil
}

// WriteTo serializes the artifact with header and checksum.
func (a *Artifact) WriteTo(w io.Writer) (int64, error) {
	payload, err := a.payload()
	if err != nil {
		return 0, err
	}
	h := fnv.New64a()
	h.Write(payload)
	hdr := make([]byte, 24)
	copy(hdr, artifactMagic[:])
	binary.LittleEndian.PutUint32(hdr[4:8], ArtifactVersion)
	binary.LittleEndian.PutUint64(hdr[8:16], uint64(len(payload)))
	binary.LittleEndian.PutUint64(hdr[16:24], h.Sum64())
	n1, err := w.Write(hdr)
	if err != nil {
		return int64(n1), err
	}
	n2, err := w.Write(payload)
	return int64(n1) + int64(n2), err
}

// Save writes the artifact to path atomically (temp file + rename).
func (a *Artifact) Save(path string) error {
	tmp, err := os.CreateTemp(pathDir(path), ".aptc-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if _, err := a.WriteTo(tmp); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

func pathDir(path string) string {
	i := strings.LastIndexByte(path, '/')
	if i < 0 {
		return "."
	}
	return path[:i]
}

// artifactReader walks a payload with bounds checking; any overrun marks
// the reader corrupt and subsequent reads return zero values.
type artifactReader struct {
	buf []byte
	off int
	err error
}

func (r *artifactReader) fail(what string) {
	if r.err == nil {
		r.err = fmt.Errorf("artifact: truncated or corrupt payload reading %s at offset %d", what, r.off)
	}
}

func (r *artifactReader) u32(what string) int {
	if r.err != nil {
		return 0
	}
	if r.off+4 > len(r.buf) {
		r.fail(what)
		return 0
	}
	v := binary.LittleEndian.Uint32(r.buf[r.off:])
	r.off += 4
	return int(v)
}

func (r *artifactReader) bytes(n int, what string) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || r.off+n > len(r.buf) {
		r.fail(what)
		return nil
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b
}

func (r *artifactReader) str(what string) string {
	n := r.u32(what)
	return string(r.bytes(n, what))
}

// maxArtifactCount bounds each table's declared element count before any
// allocation: a corrupt count must produce a clean error, not an OOM.
const maxArtifactCount = 1 << 24

func (r *artifactReader) count(what string) int {
	n := r.u32(what)
	if n > maxArtifactCount {
		r.fail(what + " count")
		return 0
	}
	return n
}

// decodeArtifact parses a payload, copying every table out of buf.
func decodeArtifact(buf []byte) (*Artifact, error) {
	r := &artifactReader{buf: buf}
	art := &Artifact{}
	nAlpha := r.count("alphabet")
	for i := 0; i < nAlpha && r.err == nil; i++ {
		nsyms := r.count("alphabet symbols")
		syms := make([]string, 0, nsyms)
		for j := 0; j < nsyms && r.err == nil; j++ {
			syms = append(syms, r.str("alphabet symbol"))
		}
		art.Alphabets = append(art.Alphabets, syms)
	}
	nExpr := r.count("expression")
	for i := 0; i < nExpr && r.err == nil; i++ {
		art.Exprs = append(art.Exprs, r.str("expression"))
	}
	nDFA := r.count("DFA")
	for i := 0; i < nDFA && r.err == nil; i++ {
		alpha := r.u32("DFA alphabet index")
		expr := r.u32("DFA expression index")
		states := r.count("DFA states")
		k := r.u32("DFA symbol count")
		if r.err == nil && (alpha >= len(art.Alphabets) || expr >= len(art.Exprs)) {
			r.fail("DFA table index")
		}
		if r.err == nil && k != len(art.Alphabets[alpha]) {
			r.fail("DFA symbol count")
		}
		accRaw := r.bytes(states, "DFA accept flags")
		for r.off%4 != 0 && r.err == nil {
			r.bytes(1, "DFA padding")
		}
		transRaw := r.bytes(states*k*4, "DFA transition table")
		if r.err != nil {
			break
		}
		accept := make([]bool, states)
		for s, b := range accRaw {
			if b > 1 {
				r.fail("DFA accept flag")
				break
			}
			accept[s] = b == 1
		}
		var trans []int32
		if states*k > 0 {
			trans = make([]int32, states*k)
			for t := range trans {
				trans[t] = int32(binary.LittleEndian.Uint32(transRaw[t*4:]))
			}
		}
		for _, t := range trans {
			if t < 0 || int(t) >= states {
				r.fail("DFA transition target")
				break
			}
		}
		if r.err != nil {
			break
		}
		art.DFAs = append(art.DFAs, ArtifactDFA{Alpha: alpha, Expr: expr, Accept: accept, Trans: trans})
	}
	nOps := r.count("decision")
	for i := 0; i < nOps && r.err == nil; i++ {
		rec := r.bytes(4, "decision record")
		alpha := r.u32("decision alphabet index")
		x := r.u32("decision x index")
		y := r.u32("decision y index")
		if r.err != nil {
			break
		}
		op, val := rec[0], rec[1]
		if (op != 'i' && op != 'd' && op != 'e') || val > 1 {
			r.fail("decision opcode")
			break
		}
		if alpha >= len(art.Alphabets) || x >= len(art.Exprs) || y >= len(art.Exprs) {
			r.fail("decision table index")
			break
		}
		art.Ops = append(art.Ops, ArtifactOp{Op: op, Value: val == 1, Alpha: alpha, X: x, Y: y})
	}
	nSigs := r.count("axiom fingerprint")
	for i := 0; i < nSigs && r.err == nil; i++ {
		art.Sigs = append(art.Sigs, r.str("axiom fingerprint"))
	}
	nGoals := r.count("goal")
	for i := 0; i < nGoals && r.err == nil; i++ {
		sig := r.u32("goal fingerprint index")
		x := r.u32("goal x index")
		y := r.u32("goal y index")
		rec := r.bytes(4, "goal record")
		if r.err != nil {
			break
		}
		form, result := rec[0], rec[1]
		if result > 1 {
			r.fail("goal result")
			break
		}
		if sig >= len(art.Sigs) || x >= len(art.Exprs) || y >= len(art.Exprs) {
			r.fail("goal table index")
			break
		}
		theorem := r.str("goal theorem")
		nSteps := r.count("proof step")
		var steps []ArtifactStep
		kidsClaimed := 0
		for j := 0; j < nSteps && r.err == nil; j++ {
			srec := r.bytes(4, "proof step record")
			sx := r.u32("proof step x index")
			sy := r.u32("proof step y index")
			si := int32(r.u32("proof step suffix i"))
			sj := int32(r.u32("proof step suffix j"))
			ai := int32(r.u32("proof step alt index"))
			kids := r.count("proof step children")
			by := r.str("proof step fact")
			byT1 := r.str("proof step T1 fact")
			byT2 := r.str("proof step T2 fact")
			note := r.str("proof step note")
			if r.err != nil {
				break
			}
			if srec[2] > 1 || srec[3] > 1 {
				r.fail("proof step flag")
				break
			}
			if sx >= len(art.Exprs) || sy >= len(art.Exprs) {
				r.fail("proof step expression index")
				break
			}
			kidsClaimed += kids
			steps = append(steps, ArtifactStep{
				Rule: srec[0], Form: srec[1],
				AltOnLeft: srec[2] == 1, StarOnLeft: srec[3] == 1,
				X: sx, Y: sy,
				SuffixI: si, SuffixJ: sj, AltIndex: ai,
				Kids: kids,
				By:   by, ByT1: byT1, ByT2: byT2, Note: note,
			})
		}
		if r.err != nil {
			break
		}
		// A pre-order flattening of one tree has exactly one root: every
		// node but the first is someone's child.
		if len(steps) > 0 && kidsClaimed != len(steps)-1 {
			r.fail("proof tree shape")
			break
		}
		art.Goals = append(art.Goals, ArtifactGoal{
			Sig: sig, Form: form, Result: result, X: x, Y: y,
			Theorem: theorem, Steps: steps,
		})
	}
	nReplays := r.count("replay workload")
	for i := 0; i < nReplays && r.err == nil; i++ {
		rp := ArtifactReplay{
			Program: r.str("replay program"),
			Fn:      r.str("replay function"),
		}
		nQ := r.count("replay query")
		for j := 0; j < nQ && r.err == nil; j++ {
			rp.Queries = append(rp.Queries, r.str("replay query"))
		}
		if r.err != nil {
			break
		}
		art.Replays = append(art.Replays, rp)
	}
	if r.err == nil && r.off != len(buf) {
		r.fail("trailing bytes")
	}
	if r.err != nil {
		return nil, r.err
	}
	return art, nil
}

// checkHeader validates magic, version, payload length, and checksum, and
// returns the payload slice of data.
func checkHeader(data []byte) ([]byte, error) {
	if len(data) < 24 {
		return nil, fmt.Errorf("artifact: file too short for header (%d bytes)", len(data))
	}
	if [4]byte(data[0:4]) != artifactMagic {
		return nil, fmt.Errorf("artifact: bad magic %q", data[0:4])
	}
	if v := binary.LittleEndian.Uint32(data[4:8]); v != ArtifactVersion {
		return nil, fmt.Errorf("artifact: format version %d, this build reads version %d", v, ArtifactVersion)
	}
	plen := binary.LittleEndian.Uint64(data[8:16])
	if plen != uint64(len(data)-24) {
		return nil, fmt.Errorf("artifact: header claims %d payload bytes, file holds %d", plen, len(data)-24)
	}
	payload := data[24:]
	h := fnv.New64a()
	h.Write(payload)
	if sum := binary.LittleEndian.Uint64(data[16:24]); sum != h.Sum64() {
		return nil, fmt.Errorf("artifact: checksum mismatch (header %#x, payload %#x)", sum, h.Sum64())
	}
	return payload, nil
}

// DecodeArtifact parses a fully in-memory artifact image (header included),
// copying all tables onto the heap.
func DecodeArtifact(data []byte) (*Artifact, error) {
	payload, err := checkHeader(data)
	if err != nil {
		return nil, err
	}
	return decodeArtifact(payload)
}

// LoadArtifact reads and decodes an artifact file, and re-interns its
// symbol tables for Preseed.
func LoadArtifact(path string) (*Artifact, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	art, err := DecodeArtifact(data)
	if err != nil {
		return nil, err
	}
	art.prep()
	return art, nil
}

// Preseed inserts the artifact's DFAs and decisions into the cache,
// skipping keys already present and entries whose expressions fail to
// re-parse (those fall back to cold compilation — degraded startup, never
// a wrong verdict).  It returns the number of DFAs and decisions inserted.
func (c *SharedCache) Preseed(art *Artifact) (dfas, ops int) {
	p := art.prep()
	alphas, exprIDs := p.alphas, p.exprIDs
	for _, ent := range art.DFAs {
		a := alphas[ent.Alpha]
		if exprIDs[ent.Expr] == 0 || len(ent.Trans) != len(ent.Accept)*a.Size() {
			continue
		}
		key := dfaKey{alpha: a.ID(), expr: exprIDs[ent.Expr]}
		d := &DFA{alphabet: a, trans: ent.Trans, accept: ent.Accept}
		sh := c.shardAt(pathexpr.Mix64(pathexpr.Mix64(pathexpr.MixInit, key.alpha), key.expr))
		sh.mu.Lock()
		if _, ok := sh.dfas[key]; !ok {
			sh.dfas[key] = d
			dfas++
		}
		sh.mu.Unlock()
	}
	for _, ent := range art.Ops {
		a := alphas[ent.Alpha]
		if exprIDs[ent.X] == 0 || exprIDs[ent.Y] == 0 {
			continue
		}
		key := opsKey{op: uint64(ent.Op), alpha: a.ID(), x: exprIDs[ent.X], y: exprIDs[ent.Y]}
		sh := c.shardAt(key.hash())
		sh.mu.Lock()
		if _, ok := sh.ops[key]; !ok {
			sh.ops[key] = ent.Value
			ops++
		}
		sh.mu.Unlock()
	}
	return dfas, ops
}
