package wire

import (
	"fmt"
	"strconv"
	"strings"
	"unicode/utf16"
	"unicode/utf8"
)

// The /v1/batch bodies decode in one pass without reflection: the body
// becomes a string once, and a string value without escapes is a substring
// of it.  Accept/reject decisions and values are encoding/json's (folded
// keys, last duplicate wins, null, U+FFFD repair, the nesting limit,
// merging into the destination), which FuzzDecodeRequest and
// FuzzDecodeResponse check against method-less copies of the types.

// maxDepth is encoding/json's nesting limit.
const maxDepth = 10000

// DecodeRequest decodes a POST /v1/batch request body into r.
func DecodeRequest(b []byte, r *BatchRequest) error { return decode(b, r) }

// DecodeResponse decodes a POST /v1/batch response body into r.
func DecodeResponse(b []byte, r *BatchResponse) error { return decode(b, r) }

// UnmarshalJSON decodes r with DecodeRequest.
func (r *BatchRequest) UnmarshalJSON(b []byte) error { return DecodeRequest(b, r) }

// UnmarshalJSON decodes r with DecodeResponse.
func (r *BatchResponse) UnmarshalJSON(b []byte) error { return DecodeResponse(b, r) }

func decode(b []byte, v fields) error {
	d := &decoder{s: string(b)}
	if err := d.object(v); err != nil {
		return err
	}
	if d.next(); d.i < len(d.s) {
		return d.fail("end of input")
	}
	return nil
}

// field decodes the value at d.i into the member of a T named name.
type field[T any] struct {
	name   string
	decode func(*decoder, *T) error
}

var requestFields = []field[BatchRequest]{
	{"program", func(d *decoder, r *BatchRequest) error { return d.setString(&r.Program) }},
	{"fn", func(d *decoder, r *BatchRequest) error { return d.setString(&r.Fn) }},
	{"queries", func(d *decoder, r *BatchRequest) error { return decodeSlice(d, &r.Queries, (*decoder).setString) }},
	{"axiom_set", func(d *decoder, r *BatchRequest) error { return d.setString(&r.AxiomSet) }},
	{"axiom_set_name", func(d *decoder, r *BatchRequest) error { return d.setString(&r.AxiomSetName) }},
	{"raw", func(d *decoder, r *BatchRequest) error {
		return decodeSlice(d, &r.Raw, func(d *decoder, q *RawQuery) error { return d.object(q) })
	}},
	{"timeout_ms", func(d *decoder, r *BatchRequest) error { return d.setInt64(&r.TimeoutMS, 64) }},
	{"deadline_ms", func(d *decoder, r *BatchRequest) error { return d.setInt64(&r.DeadlineMS, 64) }},
	{"verify", func(d *decoder, r *BatchRequest) error { return d.setBool(&r.Verify) }},
	{"assume_invariants", func(d *decoder, r *BatchRequest) error { return d.setBool(&r.AssumeInvariants) }},
}

var rawQueryFields = []field[RawQuery]{
	{"s_handle", func(d *decoder, q *RawQuery) error { return d.setString(&q.SHandle) }},
	{"s_path", func(d *decoder, q *RawQuery) error { return d.setString(&q.SPath) }},
	{"s_field", func(d *decoder, q *RawQuery) error { return d.setString(&q.SField) }},
	{"s_write", func(d *decoder, q *RawQuery) error { return d.setBool(&q.SWrite) }},
	{"t_handle", func(d *decoder, q *RawQuery) error { return d.setString(&q.THandle) }},
	{"t_path", func(d *decoder, q *RawQuery) error { return d.setString(&q.TPath) }},
	{"t_field", func(d *decoder, q *RawQuery) error { return d.setString(&q.TField) }},
	{"t_write", func(d *decoder, q *RawQuery) error { return d.setBool(&q.TWrite) }},
	{"relation", func(d *decoder, q *RawQuery) error { return d.setString(&q.Relation) }},
}

var responseFields = []field[BatchResponse]{
	{"results", func(d *decoder, r *BatchResponse) error {
		return decodeSlice(d, &r.Results, func(d *decoder, q *QueryResult) error { return d.object(q) })
	}},
	{"dependent", func(d *decoder, r *BatchResponse) error { return d.setBool(&r.Dependent) }},
	{"stats", func(d *decoder, r *BatchResponse) error { return d.object(&r.Stats) }},
}

var resultFields = []field[QueryResult]{
	{"line", func(d *decoder, q *QueryResult) error { return d.setInt(&q.Line) }},
	{"query", func(d *decoder, q *QueryResult) error { return d.setString(&q.Query) }},
	{"s", func(d *decoder, q *QueryResult) error { return d.setString(&q.S) }},
	{"t", func(d *decoder, q *QueryResult) error { return d.setString(&q.T) }},
	{"result", func(d *decoder, q *QueryResult) error { return d.setString(&q.Result) }},
	{"kind", func(d *decoder, q *QueryResult) error { return d.setString(&q.Kind) }},
	{"reason", func(d *decoder, q *QueryResult) error { return d.setString(&q.Reason) }},
}

var statsFields = []field[BatchStats]{
	{"queries", func(d *decoder, s *BatchStats) error { return d.setInt(&s.Queries) }},
	{"elapsed_us", func(d *decoder, s *BatchStats) error { return d.setInt64(&s.ElapsedUS, 64) }},
	{"service_us", func(d *decoder, s *BatchStats) error { return d.setInt64(&s.ServiceUS, 64) }},
	{"axiom_set", func(d *decoder, s *BatchStats) error { return d.setString(&s.AxiomSet) }},
	{"timeouts", func(d *decoder, s *BatchStats) error { return d.setInt64(&s.Timeouts, 64) }},
	{"trace_id", func(d *decoder, s *BatchStats) error { return d.setString(&s.TraceID) }},
	{"degraded_queries", func(d *decoder, s *BatchStats) error { return d.setInt64(&s.DegradedQueries, 64) }},
	{"deadline_expired", func(d *decoder, s *BatchStats) error { return d.setInt64(&s.DeadlineExpired, 64) }},
}

// fields is a struct the decoder fills member by member.
type fields interface {
	member(d *decoder, key string) error
}

func (r *BatchRequest) member(d *decoder, key string) error { return member(d, r, requestFields, key) }
func (q *RawQuery) member(d *decoder, key string) error     { return member(d, q, rawQueryFields, key) }
func (r *BatchResponse) member(d *decoder, key string) error {
	return member(d, r, responseFields, key)
}
func (q *QueryResult) member(d *decoder, key string) error { return member(d, q, resultFields, key) }
func (s *BatchStats) member(d *decoder, key string) error  { return member(d, s, statsFields, key) }

// skipper is an object whose every member is skipped.
type skipper struct{}

func (skipper) member(d *decoder, _ string) error { return d.skip() }

// member decodes key's value into the field of v it names: exactly, else
// case-insensitively as encoding/json falls back; it skips any other key.
func member[T any](d *decoder, v *T, fs []field[T], key string) error {
	for _, f := range fs {
		if f.name == key {
			return f.decode(d, v)
		}
	}
	for _, f := range fs {
		if strings.EqualFold(f.name, key) {
			return f.decode(d, v)
		}
	}
	return d.skip()
}

type decoder struct {
	s     string
	i     int
	depth int
}

// next skips whitespace and returns the byte at d.i, or 0 at the end.
func (d *decoder) next() byte {
	for d.i < len(d.s) && (d.s[d.i] == ' ' || d.s[d.i] == '\t' || d.s[d.i] == '\n' || d.s[d.i] == '\r') {
		d.i++
	}
	if d.i < len(d.s) {
		return d.s[d.i]
	}
	return 0
}

// fail reports that the input at d.i is not what is wanted there.
func (d *decoder) fail(want string) error {
	if d.i >= len(d.s) {
		return fmt.Errorf("wire: unexpected end of JSON input, want %s", want)
	}
	return fmt.Errorf("wire: offset %d: want %s, have %q", d.i, want, d.s[d.i])
}

// word consumes w if the input at d.i starts with it.
func (d *decoder) word(w string) bool {
	if strings.HasPrefix(d.s[d.i:], w) {
		d.i += len(w)
		return true
	}
	return false
}

// null consumes a null value, if that is what comes next.
func (d *decoder) null() bool {
	d.next()
	return d.word("null")
}

// seq reads the members or elements of the object or array at d.i, calling
// each for every one; end is '}' or ']'.
func (d *decoder) seq(end byte, each func() error) error {
	if d.depth++; d.depth > maxDepth {
		return d.fail("nesting within 10000 levels")
	}
	d.i++
	if d.next() == end {
		d.i++
		d.depth--
		return nil
	}
	for {
		if err := each(); err != nil {
			return err
		}
		switch d.next() {
		case ',':
			d.i++
		case end:
			d.i++
			d.depth--
			return nil
		default:
			return d.fail("',' or '" + string(end) + "'")
		}
	}
}

// object decodes an object into v; null leaves v as it is.
func (d *decoder) object(v fields) error {
	if d.null() {
		return nil
	}
	if d.next() != '{' {
		return d.fail("object")
	}
	return d.seq('}', func() error {
		key, err := d.str()
		if err != nil {
			return err
		}
		if d.next() != ':' {
			return d.fail("':'")
		}
		d.i++
		return v.member(d, key)
	})
}

// decodeSlice decodes an array into *dst with elem, reusing and truncating
// *dst's elements as encoding/json does; null sets *dst to nil.
func decodeSlice[T any](d *decoder, dst *[]T, elem func(*decoder, *T) error) error {
	if d.null() {
		*dst = nil
		return nil
	}
	if d.next() != '[' {
		return d.fail("array")
	}
	s, n := *dst, 0
	err := d.seq(']', func() error {
		if n >= cap(s) {
			var zero T
			s = append(s, zero)
		} else if n >= len(s) {
			s = s[:n+1]
		}
		n++
		return elem(d, &s[n-1])
	})
	if n == 0 {
		s = []T{}
	}
	*dst = s[:n]
	return err
}

// skip checks and discards one value.
func (d *decoder) skip() error {
	switch c := d.next(); {
	case c == '{':
		return d.object(skipper{})
	case c == '[':
		return d.seq(']', d.skip)
	case c == '"':
		_, err := d.str()
		return err
	case d.word("true") || d.word("false") || d.word("null"):
		return nil
	}
	_, err := d.number()
	return err
}

func (d *decoder) setString(dst *string) (err error) {
	if !d.null() {
		*dst, err = d.str()
	}
	return err
}

func (d *decoder) setBool(dst *bool) error {
	switch {
	case d.null():
	case d.word("true"):
		*dst = true
	case d.word("false"):
		*dst = false
	default:
		return d.fail("bool")
	}
	return nil
}

// setInt64 decodes an integer literal that fits in bits bits.
func (d *decoder) setInt64(dst *int64, bits int) error {
	if d.null() {
		return nil
	}
	lit, err := d.number()
	if err != nil {
		return err
	}
	n, err := strconv.ParseInt(lit, 10, bits)
	if err != nil {
		return fmt.Errorf("wire: offset %d: %s is not an integer of %d bits", d.i-len(lit), lit, bits)
	}
	*dst = n
	return nil
}

func (d *decoder) setInt(dst *int) error {
	n := int64(*dst)
	err := d.setInt64(&n, strconv.IntSize)
	*dst = int(n)
	return err
}

// number reads the number at d.i and returns its text.
func (d *decoder) number() (string, error) {
	start := d.i
	d.word("-")
	if !d.word("0") && !d.digits() {
		return "", d.fail("value")
	}
	if d.word(".") && !d.digits() {
		return "", d.fail("digit")
	}
	if d.word("e") || d.word("E") {
		_ = d.word("+") || d.word("-")
		if !d.digits() {
			return "", d.fail("digit")
		}
	}
	return d.s[start:d.i], nil
}

// digits consumes a run of decimal digits, reporting whether there was one.
func (d *decoder) digits() bool {
	start := d.i
	for d.i < len(d.s) && '0' <= d.s[d.i] && d.s[d.i] <= '9' {
		d.i++
	}
	return d.i > start
}

// plain marks the bytes a string holds verbatim: printable ASCII other
// than '"' and '\\'.
var plain = func() (t [256]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

// str reads the string at d.i and returns its value: a substring of the
// input unless a byte needs decoding (an escape, or a byte that is not
// UTF-8), in which case the value gets a buffer of its own.
func (d *decoder) str() (string, error) {
	if d.next() != '"' {
		return "", d.fail("string")
	}
	var b strings.Builder // the value, once a byte needed decoding
	run := d.i + 1        // the first byte not yet in b
	for i := run; i < len(d.s); {
		c := d.s[i]
		if plain[c] {
			i++
			continue
		}
		if c == '"' {
			d.i = i + 1
			if b.Cap() == 0 {
				return d.s[run:i], nil
			}
			b.WriteString(d.s[run:i])
			return b.String(), nil
		}
		if _, n := utf8.DecodeRuneInString(d.s[i:]); n > 1 {
			i += n
			continue
		}
		if b.Cap() == 0 {
			b.Grow(i - run + max(strings.IndexByte(d.s[i:], '"'), 0) + utf8.UTFMax)
		}
		b.WriteString(d.s[run:i])
		switch {
		case c >= utf8.RuneSelf:
			b.WriteRune(utf8.RuneError)
			i++
		case c < ' ':
			d.i = i
			return "", d.fail("string character")
		case i+1 < len(d.s) && d.s[i+1] != 'u':
			k := strings.IndexByte(`"\/bfnrt`, d.s[i+1])
			if k < 0 {
				d.i = i
				return "", d.fail("escape")
			}
			b.WriteByte("\"\\/\b\f\n\r\t"[k])
			i += 2
		default:
			r := hex4(d.s, i)
			if r < 0 {
				d.i = i
				return "", d.fail(`\u and four hex digits`)
			}
			i += 6
			if utf16.IsSurrogate(r) {
				// A lone surrogate becomes U+FFFD, leaving what follows.
				if r = utf16.DecodeRune(r, hex4(d.s, i)); r != utf8.RuneError {
					i += 6
				}
			}
			b.WriteRune(r)
		}
		run = i
	}
	d.i = len(d.s)
	return "", d.fail(`'"'`)
}

// hex4 returns the code unit of the \uXXXX escape at s[i:], or -1.
func hex4(s string, i int) rune {
	if i+6 > len(s) || s[i] != '\\' || s[i+1] != 'u' {
		return -1
	}
	n, err := strconv.ParseUint(s[i+2:i+6], 16, 16)
	if err != nil {
		return -1
	}
	return rune(n)
}
