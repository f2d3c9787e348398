package wire

import (
	"net/http"
	"strconv"
	"sync"
	"unicode/utf8"
)

// The 200 answer to /v1/batch is appended by hand, without reflection.
// Its bytes are those of a json.Encoder with SetEscapeHTML(false), which
// is what WriteJSON writes: members in field order, "results":null for nil
// results, the stats' omitempty members left out when zero, encoding/json's
// string escapes, and the Encoder's trailing newline.  FuzzEncodeResponse
// checks them against encoding/json.

// respBufs recycles the buffers WriteResponse appends into, so a warm
// answer encodes without allocating.
var respBufs = sync.Pool{New: func() any { return new([]byte) }}

// maxPooledResponse is the largest buffer respBufs keeps: one large answer
// must not pin its buffer for the life of the process.
const maxPooledResponse = 64 << 10

// WriteResponse writes resp as the body of an answer with the given
// status: the bytes WriteJSON would write, encoded into a recycled buffer.
func WriteResponse(w http.ResponseWriter, code int, resp *BatchResponse) {
	bp := respBufs.Get().(*[]byte)
	*bp = AppendResponse((*bp)[:0], resp)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	w.Write(*bp) //nolint:errcheck // the client hanging up is its problem
	if cap(*bp) <= maxPooledResponse {
		respBufs.Put(bp)
	}
}

// AppendResponse appends resp's JSON encoding and a newline to b.
func AppendResponse(b []byte, resp *BatchResponse) []byte {
	b = append(b, `{"results":`...)
	if resp.Results == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i := range resp.Results {
			r := &resp.Results[i]
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendInt(append(b, `{"line":`...), int64(r.Line), 10)
			b = appendString(append(b, `,"query":`...), r.Query)
			b = appendString(append(b, `,"s":`...), r.S)
			b = appendString(append(b, `,"t":`...), r.T)
			b = appendString(append(b, `,"result":`...), r.Result)
			b = appendString(append(b, `,"kind":`...), r.Kind)
			b = appendString(append(b, `,"reason":`...), r.Reason)
			b = append(b, '}')
		}
		b = append(b, ']')
	}
	b = strconv.AppendBool(append(b, `,"dependent":`...), resp.Dependent)
	st := &resp.Stats
	b = strconv.AppendInt(append(b, `,"stats":{"queries":`...), int64(st.Queries), 10)
	b = strconv.AppendInt(append(b, `,"elapsed_us":`...), st.ElapsedUS, 10)
	b = strconv.AppendInt(append(b, `,"service_us":`...), st.ServiceUS, 10)
	b = appendString(append(b, `,"axiom_set":`...), st.AxiomSet)
	b = strconv.AppendInt(append(b, `,"timeouts":`...), st.Timeouts, 10)
	if st.TraceID != "" {
		b = appendString(append(b, `,"trace_id":`...), st.TraceID)
	}
	if st.DegradedQueries != 0 {
		b = strconv.AppendInt(append(b, `,"degraded_queries":`...), st.DegradedQueries, 10)
	}
	if st.DeadlineExpired != 0 {
		b = strconv.AppendInt(append(b, `,"deadline_expired":`...), st.DeadlineExpired, 10)
	}
	return append(b, "}}\n"...)
}

const hexDigits = "0123456789abcdef"

// appendString appends s as a JSON string the way encoding/json does with
// HTML escaping off: '"' and '\\' and the control bytes escaped (\b, \f,
// \n, \r and \t short, the rest as \u00XX), each byte of invalid UTF-8 as
// \ufffd, U+2028 and U+2029 as \u2028 and \u2029, everything else raw.
func appendString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, `\b`...)
			case '\f':
				b = append(b, `\f`...)
			case '\n':
				b = append(b, `\n`...)
			case '\r':
				b = append(b, `\r`...)
			case '\t':
				b = append(b, `\t`...)
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xf])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(append(b, s[start:i]...), `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(append(b, s[start:i]...), '\\', 'u', '2', '0', '2', hexDigits[r&0xf])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	return append(append(b, s[start:]...), '"')
}
