package exec

import (
	"encoding/binary"
	"fmt"
	"sync"

	"repro/internal/analysis"
	"repro/internal/axiom"
	"repro/internal/core"
	"repro/internal/lang"
	"repro/internal/telemetry"
	"repro/internal/wire"
)

// Bounds of the pool's request table, set from a memory budget: at most
// tableEntryCap × tableKeyCap = 4 MiB of keys and tableQueryCap built
// queries, 12 MiB of query records and response rows at tableQueryBytes
// each (DESIGN §7c).  A full table is emptied wholesale before the next
// insert; a request whose key would be longer than tableKeyCap is built on
// every send and never stored.
const (
	tableEntryCap = 256      // requests held
	tableKeyCap   = 16 << 10 // longest key stored, in bytes
	tableQueryCap = 32 << 10 // built queries held across all entries
)

// tableQueryBytes is one built query's share of the budget: its
// core.Query record (216 B on 64-bit), its row's wire.QueryResult header
// (104 B), and 64 B for the texts the row holds beyond the key — the two
// rendered accesses and a raw query's echo (a program-mode row echoes its
// line from the key).  Those texts measure 34 B a row on
// testdata/determinism/walk.{c,q} and 57 B on the raw wire golden; they
// grow with the paths they render.
const tableQueryBytes = 216 + 104 + 64

// Program is what a request builds: for a program-mode request, the
// function analysed, the axiom set it declares, and the query lines
// expanded to queries; for a raw-mode request, the parsed axiom set and
// its queries, with no Fn.  Rows[i] is the response row of Queries[i]
// without its verdict: the index of the line or raw query it came from,
// that line or the raw query's rendering, and the two accesses rendered.
// A Program the pool returns may be shared with other requests and must
// not be modified; a response copies its rows.
type Program struct {
	Fn      string
	Axioms  *axiom.Set
	Queries []core.Query
	Rows    []wire.QueryResult
}

// reqTable maps a whole request's query-building inputs — for program
// mode the program text, fn as sent, assume_invariants and the query
// lines; for raw mode the axiom set's name and text and every raw query —
// to the Program they build.  Parsing, analysis and query building are
// pure functions of those inputs, so a stored Program asks exactly the
// questions a fresh build would.  The table holds no analysis result (no
// AST, access path matrices or trace), no verdicts and no errors: a
// request that fails is built again, and fails the same way, every time
// it is sent.
type reqTable struct {
	mu      sync.RWMutex
	entries map[string]*Program
	queries int // built queries held across entries
}

func newReqTable() *reqTable {
	return &reqTable{entries: make(map[string]*Program)}
}

// keyBufs recycles the buffers request keys are encoded into, so a hit
// allocates nothing.
var keyBufs = sync.Pool{New: func() any { return new([]byte) }}

// A key's leading byte names its mode, so a raw key never equals a
// program key.
const (
	programKey byte = 'p'
	rawKey     byte = 'r'
)

// appendKey encodes a request's query-building inputs unambiguously: every
// string is length-prefixed but a program's text, which comes last and
// runs to the key's end.  Query lines are never joined, so the one line
// "between A0 A1\nloop U0" and the two lines it would split into are
// distinct keys.  decodeKey reads a key back.
func appendKey(b []byte, req *wire.BatchRequest) []byte {
	if len(req.Raw) > 0 {
		b = append(b, rawKey)
		b = appendString(b, rawSetName(req))
		b = appendString(b, req.AxiomSet)
		b = binary.AppendUvarint(b, uint64(len(req.Raw)))
		for _, rq := range req.Raw {
			for _, s := range [...]string{rq.SHandle, rq.SPath, rq.SField, rq.THandle, rq.TPath, rq.TField, rq.Relation} {
				b = appendString(b, s)
			}
			b = append(b, flag(rq.SWrite)|flag(rq.TWrite)<<1)
		}
		return b
	}
	b = append(b, programKey, flag(req.AssumeInvariants))
	b = appendString(b, req.Fn)
	b = binary.AppendUvarint(b, uint64(len(req.Queries)))
	for _, line := range req.Queries {
		b = appendString(b, line)
	}
	return append(b, req.Program...)
}

func appendString(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

func flag(b bool) byte {
	if b {
		return 1
	}
	return 0
}

// decodeKey is the request a key encodes, every string in it a substring
// of the key.
func decodeKey(k string) *wire.BatchRequest {
	r := keyReader{k[1:]}
	req := new(wire.BatchRequest)
	if k[0] == rawKey {
		req.AxiomSetName = r.str()
		req.AxiomSet = r.str()
		req.Raw = make([]wire.RawQuery, r.uvarint())
		for i := range req.Raw {
			rq := &req.Raw[i]
			rq.SHandle, rq.SPath, rq.SField = r.str(), r.str(), r.str()
			rq.THandle, rq.TPath, rq.TField = r.str(), r.str(), r.str()
			rq.Relation = r.str()
			flags := r.next()
			rq.SWrite, rq.TWrite = flags&1 != 0, flags&2 != 0
		}
		return req
	}
	req.AssumeInvariants = r.next() == 1
	req.Fn = r.str()
	req.Queries = make([]string, r.uvarint())
	for i := range req.Queries {
		req.Queries[i] = r.str()
	}
	req.Program = r.s
	return req
}

// keyReader reads a key's fields back in the order appendKey wrote them.
type keyReader struct{ s string }

func (r *keyReader) next() byte {
	c := r.s[0]
	r.s = r.s[1:]
	return c
}

func (r *keyReader) uvarint() int {
	var n uint64
	for shift := 0; ; shift += 7 {
		c := r.next()
		n |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return int(n)
		}
	}
}

func (r *keyReader) str() string {
	n := r.uvarint()
	s := r.s[:n]
	r.s = r.s[n:]
	return s
}

// rawSetName is a raw request's axiom-set name, "raw" when it sends none.
func rawSetName(req *wire.BatchRequest) string {
	if req.AxiomSetName == "" {
		return "raw"
	}
	return req.AxiomSetName
}

// Queries builds a request's queries through the pool's request table: a
// raw-mode request's (one with Raw queries) the way axiom.ParseSet and
// BuildRawQueries do, a program-mode request's the way lang.Parse,
// analysis.Analyze and Result.ExpandQueryLines do.  It returns the Program
// and 1 when the request had to be built, 0 when the table held it.  An
// analysis reports into tel.  A Program of more than limit queries is
// returned but not stored: the caller refuses it, and refuses it again the
// next time it is sent.  Errors read as the request's 400 answer reports
// them.
func (p *Pool) Queries(req *wire.BatchRequest, limit int, tel *telemetry.Set) (*Program, int, error) {
	bp := keyBufs.Get().(*[]byte)
	*bp = appendKey((*bp)[:0], req)
	if len(*bp) > tableKeyCap {
		// Too long to store: built from the request every time, and the
		// grown buffer is left to the collector.
		prog, err := p.build(req, tel)
		return prog, 1, err
	}
	t := p.table
	t.mu.RLock()
	prog := t.entries[string(*bp)]
	t.mu.RUnlock()
	if prog != nil {
		keyBufs.Put(bp)
		return prog, 0, nil
	}
	// The stored key is a copy of the request's text, not a substring of
	// its body, and the request is built from the key's own bytes: every
	// name the Program holds then points into the key, and no entry keeps
	// a request body alive.
	k := string(*bp)
	keyBufs.Put(bp)
	prog, err := p.build(decodeKey(k), tel)
	if err != nil || len(prog.Queries) > limit || len(prog.Queries) > tableQueryCap {
		return prog, 1, err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if prev := t.entries[k]; prev != nil {
		return prev, 1, nil // a concurrent request stored it first
	}
	if len(t.entries) >= tableEntryCap || t.queries+len(prog.Queries) > tableQueryCap {
		t.entries, t.queries = make(map[string]*Program), 0
	}
	t.entries[k] = prog
	t.queries += len(prog.Queries)
	return prog, 1, nil
}

// build builds a request's Program without the table.
func (p *Pool) build(req *wire.BatchRequest, tel *telemetry.Set) (*Program, error) {
	if len(req.Raw) == 0 {
		return p.analyze(req, tel)
	}
	ax, err := axiom.ParseSet(rawSetName(req), req.AxiomSet)
	if err != nil {
		return nil, fmt.Errorf("axiom_set: %v", err)
	}
	queries, err := BuildRawQueries(ax, req.Raw)
	if err != nil {
		return nil, err
	}
	rows := make([]wire.QueryResult, len(queries))
	for i, rq := range req.Raw {
		rows[i] = row(i, renderRawQuery(rq), queries[i])
	}
	return &Program{Axioms: ax, Queries: queries, Rows: rows}, nil
}

// analyze runs the front end over a program-mode request.
func (p *Pool) analyze(req *wire.BatchRequest, tel *telemetry.Set) (*Program, error) {
	prog, err := lang.Parse(req.Program)
	if err != nil {
		return nil, fmt.Errorf("program: %v", err)
	}
	fn := req.Fn
	if fn == "" {
		if len(prog.Funcs) != 1 {
			return nil, fmt.Errorf("program has %d functions; set fn", len(prog.Funcs))
		}
		fn = prog.Funcs[0].Name
	}
	// The analysis borrows the pool's DFA cache, so the widening checks of
	// a loop shape seen before decide without compiling.
	res, err := analysis.Analyze(prog, fn, analysis.Options{
		InferTypeAxioms:      true,
		AssumeLoopInvariants: req.AssumeInvariants,
		Telemetry:            tel,
		DFACache:             p.dfas,
	})
	if err != nil {
		return nil, fmt.Errorf("analyze: %v", err)
	}
	queries, origins, err := res.ExpandQueryLines(req.Queries, func(n int) string {
		return fmt.Sprintf("queries[%d]", n)
	})
	if err != nil {
		return nil, err
	}
	rows := make([]wire.QueryResult, len(queries))
	for i, line := range origins {
		rows[i] = row(line, req.Queries[line], queries[i])
	}
	return &Program{Fn: fn, Axioms: res.Axioms, Queries: queries, Rows: rows}, nil
}

// row is q's response row without its verdict.
func row(line int, query string, q core.Query) wire.QueryResult {
	return wire.QueryResult{Line: line, Query: query, S: q.S.String(), T: q.T.String()}
}
