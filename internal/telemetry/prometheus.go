package telemetry

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Prometheus text-exposition (version 0.0.4) rendering of a Registry, so
// any standard scraper can consume aptserved's /metrics without a sidecar.
// The mapping:
//
//   - Counter   → counter   apt_<name>_total
//   - GaugeFunc → gauge     apt_<name>
//   - Histogram → histogram apt_<name> with cumulative log₂ buckets
//     (le = 2^i − 1, the exact upper bound of bucket i), _sum and _count
//
// Dots and any other characters outside [a-zA-Z0-9_:] become '_'.  A
// counter or gauge name built by Labeled keeps its label set verbatim: only
// the base is sanitized and prefixed, and every name sharing a base is one
// family under one HELP/TYPE pair.  Output is sorted by family and then by
// label set, so successive scrapes of an unchanged registry are
// byte-identical (the exposition golden test relies on this).

// PromName sanitizes a registry instrument name into a Prometheus metric
// name component (no prefix added).
func PromName(name string) string {
	var b strings.Builder
	b.Grow(len(name))
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
			b.WriteByte(c)
		case c >= '0' && c <= '9':
			if i == 0 {
				b.WriteByte('_')
			}
			b.WriteByte(c)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// PromEscapeLabel escapes a label value per the exposition format
// (backslash, double quote, and newline).
func PromEscapeLabel(v string) string {
	var b strings.Builder
	b.Grow(len(v))
	for i := 0; i < len(v); i++ {
		switch c := v[i]; c {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteByte(c)
		}
	}
	return b.String()
}

// Labeled returns the instrument name base{key="value"}, the value escaped
// per the exposition format.  Only counters and gauges take labels.
func Labeled(base, key, value string) string {
	return base + "{" + key + `="` + PromEscapeLabel(value) + `"}`
}

// baseName strips an instrument name's label set, if any.
func baseName(name string) string {
	base, _, _ := strings.Cut(name, "{")
	return base
}

// WritePrometheus renders every instrument in Prometheus text-exposition
// format, metric names prefixed "apt_".  A nil registry writes nothing.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	gauges := r.readGauges()
	// Copy the instrument pointers under the lock, render outside it (the
	// instruments themselves are atomic).
	r.mu.Lock()
	counters := make(map[string]int64, len(r.counters))
	for n, c := range r.counters {
		counters[n] = c.Value()
	}
	hists := make(map[string]*Histogram, len(r.hists))
	for n, h := range r.hists {
		hists[n] = h
	}
	r.mu.Unlock()

	bw := bufio.NewWriter(w)
	writePromScalars(bw, "counter", "_total", counters, func(base string) string {
		return "Cumulative counter " + base + "."
	})
	writePromScalars(bw, "gauge", "", gauges, func(base string) string {
		return "Gauge " + base + "."
	})
	for _, n := range sortedKeys(hists) {
		writePromHistogram(bw, "apt_"+PromName(n), n, hists[n])
	}
	return bw.Flush()
}

// writePromScalars renders single-valued series of one type, grouped into
// families by base name: one HELP/TYPE pair per family, then its samples
// in label-set order.
func writePromScalars(w io.Writer, typ, suffix string, series map[string]int64, help func(base string) string) {
	families := map[string][]string{} // family → its instrument names
	for n := range series {
		fam := "apt_" + PromName(baseName(n)) + suffix
		families[fam] = append(families[fam], n)
	}
	for _, fam := range sortedKeys(families) {
		names := families[fam]
		sort.Strings(names)
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", fam, help(baseName(names[0])), fam, typ)
		for _, n := range names {
			fmt.Fprintf(w, "%s%s %d\n", fam, n[len(baseName(n)):], series[n])
		}
	}
}

func writePromHistogram(w io.Writer, name, orig string, h *Histogram) {
	fmt.Fprintf(w, "# HELP %s Cumulative log2-bucket histogram %s.\n# TYPE %s histogram\n", name, orig, name)
	var (
		cum   int64
		sum   = h.sum.Load()
		count = h.count.Load()
	)
	// Bucket i of the log₂ histogram counts v with bits.Len64(v) == i,
	// i.e. v ≤ 2^i − 1; emit only occupied buckets (plus le="0") — the
	// cumulative counts stay monotone either way.
	for i := 0; i < histBuckets; i++ {
		n := h.buckets[i].Load()
		cum += n
		if i == 0 || (n > 0 && i < 64) {
			le := uint64(0)
			if i > 0 {
				le = 1<<uint(i) - 1
			}
			fmt.Fprintf(w, "%s_bucket{le=\"%s\"} %d\n", name, strconv.FormatUint(le, 10), cum)
		}
	}
	fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, count)
	fmt.Fprintf(w, "%s_sum %d\n", name, sum)
	fmt.Fprintf(w, "%s_count %d\n", name, count)
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for n := range m {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// ValidatePrometheus checks that data parses as Prometheus text-exposition
// format: well-formed HELP/TYPE comments, at most one HELP and one TYPE per
// family, metric and label syntax, float values, TYPE declared before its
// samples, no sample repeated with the same name and label set, and — for
// histograms —
// monotone le bounds, non-decreasing cumulative bucket counts, a +Inf
// bucket, and _sum/_count lines.  It exists so tests (and `make
// obs-check`) can gate /metrics output without a Prometheus dependency.
func ValidatePrometheus(data []byte) error {
	type family struct {
		typ string
		// histogram bookkeeping
		lastLE    float64
		lastCount float64
		infCount  float64
		sawInf    bool
		sawSum    bool
		sawCount  bool
		samples   int
	}
	families := map[string]*family{}
	helps := map[string]bool{}
	seen := map[string]bool{} // name plus canonical label set
	base := func(name string) string {
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			if b, ok := strings.CutSuffix(name, suf); ok {
				if _, exists := families[b]; exists {
					return b
				}
			}
		}
		return name
	}
	lineNo := 0
	for _, line := range bytes.Split(data, []byte("\n")) {
		lineNo++
		s := string(line)
		if s == "" {
			continue
		}
		if strings.HasPrefix(s, "#") {
			fields := strings.SplitN(s, " ", 4)
			if len(fields) < 3 || (fields[1] != "HELP" && fields[1] != "TYPE") {
				return fmt.Errorf("line %d: malformed comment %q", lineNo, s)
			}
			if !validPromName(fields[2]) {
				return fmt.Errorf("line %d: invalid metric name %q", lineNo, fields[2])
			}
			if fields[1] == "HELP" {
				if helps[fields[2]] {
					return fmt.Errorf("line %d: second HELP for %s", lineNo, fields[2])
				}
				helps[fields[2]] = true
			}
			if fields[1] == "TYPE" {
				if len(fields) != 4 {
					return fmt.Errorf("line %d: TYPE without a type", lineNo)
				}
				switch fields[3] {
				case "counter", "gauge", "histogram", "summary", "untyped":
				default:
					return fmt.Errorf("line %d: unknown type %q", lineNo, fields[3])
				}
				if families[fields[2]] != nil {
					return fmt.Errorf("line %d: second TYPE for %s", lineNo, fields[2])
				}
				families[fields[2]] = &family{typ: fields[3], lastLE: math.Inf(-1)}
			}
			continue
		}
		name, labels, value, err := parsePromSample(s)
		if err != nil {
			return fmt.Errorf("line %d: %v", lineNo, err)
		}
		fam := families[base(name)]
		if fam == nil {
			return fmt.Errorf("line %d: sample %s has no preceding TYPE", lineNo, name)
		}
		key := name + "{"
		for _, l := range sortedKeys(labels) {
			key += l + "=" + strconv.Quote(labels[l]) + ","
		}
		if seen[key] {
			return fmt.Errorf("line %d: repeated sample %s", lineNo, s)
		}
		seen[key] = true
		fam.samples++
		if fam.typ == "histogram" && strings.HasSuffix(name, "_bucket") {
			le, ok := labels["le"]
			if !ok {
				return fmt.Errorf("line %d: histogram bucket without le label", lineNo)
			}
			bound := math.Inf(1)
			if le != "+Inf" {
				bound, err = strconv.ParseFloat(le, 64)
				if err != nil {
					return fmt.Errorf("line %d: bad le %q", lineNo, le)
				}
			}
			if bound <= fam.lastLE {
				return fmt.Errorf("line %d: le %q not increasing", lineNo, le)
			}
			if value < fam.lastCount {
				return fmt.Errorf("line %d: cumulative bucket count decreased", lineNo)
			}
			fam.lastLE, fam.lastCount = bound, value
			if le == "+Inf" {
				fam.sawInf, fam.infCount = true, value
			}
		}
		if strings.HasSuffix(name, "_sum") {
			fam.sawSum = true
		}
		if strings.HasSuffix(name, "_count") {
			fam.sawCount = true
			if fam.typ == "histogram" && fam.sawInf && value != fam.infCount {
				return fmt.Errorf("line %d: histogram _count %v != +Inf bucket %v", lineNo, value, fam.infCount)
			}
		}
	}
	for name, fam := range families {
		if fam.typ == "histogram" && fam.samples > 0 {
			if !fam.sawInf {
				return fmt.Errorf("histogram %s has no +Inf bucket", name)
			}
			if !fam.sawSum || !fam.sawCount {
				return fmt.Errorf("histogram %s missing _sum or _count", name)
			}
		}
	}
	return nil
}

func validPromName(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		ok := c == '_' || c == ':' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			return false
		}
	}
	return true
}

// parsePromSample parses `name{l1="v1",...} value [timestamp]`.
func parsePromSample(s string) (name string, labels map[string]string, value float64, err error) {
	rest := s
	i := strings.IndexAny(rest, "{ ")
	if i < 0 {
		return "", nil, 0, fmt.Errorf("malformed sample %q", s)
	}
	name = rest[:i]
	if !validPromName(name) {
		return "", nil, 0, fmt.Errorf("invalid metric name %q", name)
	}
	labels = map[string]string{}
	if rest[i] == '{' {
		rest = rest[i+1:]
		for {
			rest = strings.TrimLeft(rest, ",")
			if len(rest) > 0 && rest[0] == '}' {
				rest = rest[1:]
				break
			}
			eq := strings.IndexByte(rest, '=')
			if eq < 0 || len(rest) < eq+2 || rest[eq+1] != '"' {
				return "", nil, 0, fmt.Errorf("malformed labels in %q", s)
			}
			lname := rest[:eq]
			if !validPromName(lname) {
				return "", nil, 0, fmt.Errorf("invalid label name %q", lname)
			}
			rest = rest[eq+2:]
			var val strings.Builder
			closed := false
			for j := 0; j < len(rest); j++ {
				c := rest[j]
				if c == '\\' && j+1 < len(rest) {
					j++
					switch rest[j] {
					case 'n':
						val.WriteByte('\n')
					default:
						val.WriteByte(rest[j])
					}
					continue
				}
				if c == '"' {
					labels[lname] = val.String()
					rest = rest[j+1:]
					closed = true
					break
				}
				val.WriteByte(c)
			}
			if !closed {
				return "", nil, 0, fmt.Errorf("unterminated label value in %q", s)
			}
		}
	} else {
		rest = rest[i:]
	}
	fields := strings.Fields(rest)
	if len(fields) < 1 || len(fields) > 2 {
		return "", nil, 0, fmt.Errorf("malformed value in %q", s)
	}
	value, err = strconv.ParseFloat(fields[0], 64)
	if err != nil {
		return "", nil, 0, fmt.Errorf("bad value %q: %v", fields[0], err)
	}
	if len(fields) == 2 {
		if _, err := strconv.ParseInt(fields[1], 10, 64); err != nil {
			return "", nil, 0, fmt.Errorf("bad timestamp %q", fields[1])
		}
	}
	return name, labels, value, nil
}
