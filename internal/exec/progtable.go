package exec

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"strings"
	"sync"

	"repro/internal/analysis"
	"repro/internal/axiom"
	"repro/internal/core"
	"repro/internal/lang"
	"repro/internal/telemetry"
	"repro/internal/wire"
)

// Bounds of the pool's program table, set from a memory budget: at most
// progEntryCap × progTextCap = 4 MiB of keys and progQueryCap expanded
// queries, 7 MiB of query records and their origins (DESIGN §7c).  A full
// table is emptied wholesale before the next insert; a request whose key
// would be longer than progTextCap is analysed on every send and never
// stored.
const (
	progEntryCap = 256      // requests held
	progTextCap  = 16 << 10 // longest key stored, in bytes
	progQueryCap = 32 << 10 // expanded queries held across all entries
)

// Program is what the front end builds from a program-mode request: the
// function analysed, the axiom set it declares, and the query lines
// expanded to queries, each with the index of the line it came from.  A
// Program the pool returns may be shared with other requests and must not
// be modified.
type Program struct {
	Fn      string
	Axioms  *axiom.Set
	Queries []core.Query
	Origins []int
}

// progTable maps a program-mode request's front-end inputs — program
// text, fn as sent, assume_invariants and the query lines — to the
// Program they build.  Parsing, analysis and query expansion are pure
// functions of those inputs, so a stored Program asks exactly the
// questions a fresh build would.  The table holds no analysis result (no
// AST, access path matrices or trace), no verdicts and no errors: a
// request that fails is built again, and fails the same way, every time
// it is sent.
type progTable struct {
	mu      sync.RWMutex
	entries map[string]*Program
	queries int // expanded queries held across entries
}

func newProgTable() *progTable {
	return &progTable{entries: make(map[string]*Program)}
}

// keyBufs recycles the buffers request keys are encoded into, so a hit
// allocates nothing.
var keyBufs = sync.Pool{New: func() any { return new([]byte) }}

// appendProgKey encodes a request's front-end inputs unambiguously: the
// assume flag, fn and every query line length-prefixed, and the program
// last, running to the key's end.  Lines are never joined, so the one
// line "between A0 A1\nloop U0" and the two lines it would split into are
// distinct keys.
func appendProgKey(b []byte, req *wire.BatchRequest) []byte {
	flag := byte(0)
	if req.AssumeInvariants {
		flag = 1
	}
	b = append(b, flag)
	b = binary.AppendUvarint(b, uint64(len(req.Fn)))
	b = append(b, req.Fn...)
	b = binary.AppendUvarint(b, uint64(len(req.Queries)))
	for _, line := range req.Queries {
		b = binary.AppendUvarint(b, uint64(len(line)))
		b = append(b, line...)
	}
	return append(b, req.Program...)
}

// progKeyLen is the length of the request's key, the text an entry holds.
func progKeyLen(req *wire.BatchRequest) int {
	n := 1 + uvarintLen(len(req.Fn)) + len(req.Fn) + uvarintLen(len(req.Queries)) + len(req.Program)
	for _, line := range req.Queries {
		n += uvarintLen(len(line)) + len(line)
	}
	return n
}

func uvarintLen(n int) int { return (bits.Len64(uint64(n)|1) + 6) / 7 }

// ProgramQueries builds a program-mode request's queries the way
// lang.Parse, analysis.Analyze and Result.ExpandQueryLines do, through the
// pool's program table.  It returns the Program and 1 when the request had
// to be analysed, 0 when the table held it.  An analysis reports into tel.
// A Program of more than limit queries is returned but not stored: the
// caller refuses it, and refuses it again the next time it is sent.
// Errors read as the request's 400 answer reports them.
func (p *Pool) ProgramQueries(req *wire.BatchRequest, limit int, tel *telemetry.Set) (*Program, int, error) {
	if progKeyLen(req) > progTextCap {
		prog, err := p.analyze(req.Program, req, tel)
		return prog, 1, err
	}
	t := p.prog
	bp := keyBufs.Get().(*[]byte)
	*bp = appendProgKey((*bp)[:0], req)
	t.mu.RLock()
	prog := t.entries[string(*bp)]
	t.mu.RUnlock()
	if prog != nil {
		keyBufs.Put(bp)
		return prog, 0, nil
	}
	// The stored key is a copy of the request's text, not a substring of
	// its body, and the program is parsed from the key's own bytes: every
	// name the Program holds then points into the key, and no entry keeps
	// a request body alive.
	k := string(*bp)
	keyBufs.Put(bp)
	prog, err := p.analyze(k[len(k)-len(req.Program):], req, tel)
	if err != nil || len(prog.Queries) > limit || len(prog.Queries) > progQueryCap {
		return prog, 1, err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if prev := t.entries[k]; prev != nil {
		return prev, 1, nil // a concurrent request stored it first
	}
	if len(t.entries) >= progEntryCap || t.queries+len(prog.Queries) > progQueryCap {
		t.entries, t.queries = make(map[string]*Program), 0
	}
	t.entries[k] = prog
	t.queries += len(prog.Queries)
	return prog, 1, nil
}

// analyze runs the front end over src, the request's program text.
func (p *Pool) analyze(src string, req *wire.BatchRequest, tel *telemetry.Set) (*Program, error) {
	prog, err := lang.Parse(src)
	if err != nil {
		return nil, fmt.Errorf("program: %v", err)
	}
	fn := req.Fn
	if fn == "" {
		if len(prog.Funcs) != 1 {
			return nil, fmt.Errorf("program has %d functions; set fn", len(prog.Funcs))
		}
		fn = prog.Funcs[0].Name
	} else {
		fn = strings.Clone(fn)
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
	return &Program{Fn: fn, Axioms: res.Axioms, Queries: queries, Origins: origins}, nil
}
