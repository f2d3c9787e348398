package telemetry

import (
	"encoding/hex"
	"io"
	"math"
	"strconv"
	"sync"
	"time"
)

// Attr is one typed key/value attribute of a trace event.  The concrete
// constructors (String, Int, ...) avoid interface boxing so that building
// attributes never allocates.
type Attr struct {
	Key  string
	kind attrKind
	s    string
	i    int64
	f    float64
}

type attrKind uint8

const (
	attrString attrKind = iota
	attrInt
	attrFloat
	attrBool
)

// String builds a string attribute.
func String(k, v string) Attr { return Attr{Key: k, kind: attrString, s: v} }

// Int builds an integer attribute.
func Int(k string, v int) Attr { return Attr{Key: k, kind: attrInt, i: int64(v)} }

// Int64 builds an integer attribute.
func Int64(k string, v int64) Attr { return Attr{Key: k, kind: attrInt, i: v} }

// Float64 builds a float attribute (NaN/Inf serialize as null).
func Float64(k string, v float64) Attr { return Attr{Key: k, kind: attrFloat, f: v} }

// Bool builds a boolean attribute.
func Bool(k string, v bool) Attr {
	a := Attr{Key: k, kind: attrBool}
	if v {
		a.i = 1
	}
	return a
}

// DurUS builds an integer attribute holding d in microseconds.
func DurUS(k string, d time.Duration) Attr { return Int64(k, d.Microseconds()) }

// TraceWriter encodes events as JSON Lines: one object per line with
// monotonic "ts_us" (microseconds since the writer was created), a strictly
// increasing "seq", the event name "ev", and the event's attributes as
// top-level keys.  It is the line encoder behind a streaming RequestTrace
// (which adds "span_id", "parent_id" and "dur_us") and the servers' access
// logs.  Safe for concurrent use; a nil *TraceWriter is a valid, disabled
// writer.
type TraceWriter struct {
	mu    sync.Mutex
	w     io.Writer
	buf   []byte
	start time.Time
	seq   int64
	err   error
}

// NewTraceWriter returns a writer emitting JSONL to w.
func NewTraceWriter(w io.Writer) *TraceWriter {
	return &TraceWriter{w: w, start: time.Now(), buf: make([]byte, 0, 256)}
}

// Err returns the first write error encountered, if any.
func (t *TraceWriter) Err() error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.err
}

// Emit writes one event line.
func (t *TraceWriter) Emit(event string, attrs ...Attr) {
	t.line(event, SpanID{}, SpanID{}, -1, attrs)
}

// line writes one line: "span_id" when id is non-zero, "parent_id" when
// parent is, and "dur_us" when durUS is non-negative precede the attributes.
func (t *TraceWriter) line(event string, id, parent SpanID, durUS int64, attrs []Attr) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.seq++
	b := t.buf[:0]
	b = append(b, `{"ts_us":`...)
	b = strconv.AppendInt(b, time.Since(t.start).Microseconds(), 10)
	b = append(b, `,"seq":`...)
	b = strconv.AppendInt(b, t.seq, 10)
	b = append(b, `,"ev":`...)
	b = strconv.AppendQuote(b, event)
	if !id.IsZero() {
		b = append(b, `,"span_id":"`...)
		b = hex.AppendEncode(b, id[:])
		b = append(b, '"')
	}
	if !parent.IsZero() {
		b = append(b, `,"parent_id":"`...)
		b = hex.AppendEncode(b, parent[:])
		b = append(b, '"')
	}
	if durUS >= 0 {
		b = append(b, `,"dur_us":`...)
		b = strconv.AppendInt(b, durUS, 10)
	}
	for _, a := range attrs {
		b = append(b, ',')
		b = strconv.AppendQuote(b, a.Key)
		b = append(b, ':')
		switch a.kind {
		case attrString:
			b = strconv.AppendQuote(b, a.s)
		case attrInt:
			b = strconv.AppendInt(b, a.i, 10)
		case attrFloat:
			if math.IsNaN(a.f) || math.IsInf(a.f, 0) {
				b = append(b, "null"...)
			} else {
				b = strconv.AppendFloat(b, a.f, 'g', -1, 64)
			}
		case attrBool:
			if a.i != 0 {
				b = append(b, "true"...)
			} else {
				b = append(b, "false"...)
			}
		}
	}
	b = append(b, '}', '\n')
	if _, err := t.w.Write(b); err != nil && t.err == nil {
		t.err = err
	}
	t.buf = b[:0]
}
