package analysis

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/pathexpr"
)

// pathsOf builds an access's handle → path set from (handle, path) pairs,
// paths in pathexpr syntax.
func pathsOf(pairs ...string) HandlePaths {
	var out HandlePaths
	for i := 0; i < len(pairs); i += 2 {
		out = append(out, HandlePath{pairs[i], pathexpr.MustParse(pairs[i+1])})
	}
	slices.SortFunc(out, func(a, b HandlePath) int { return strings.Compare(a.Handle, b.Handle) })
	return out
}

// TestCommonHandleChoice: of the handles both accesses share, commonHandle
// picks a synthetic iteration handle (_it…) first, then the first name.
func TestCommonHandleChoice(t *testing.T) {
	cases := []struct {
		name   string
		a, b   []string
		want   string
		wantOK bool
	}{
		{name: "no shared handle",
			a: []string{"_hp", "L"}, b: []string{"_hq", "eps"}},
		{name: "both empty"},
		{name: "one shared handle",
			a: []string{"_hp", "L", "_hq", "R"}, b: []string{"_hq", "eps", "_hr", "N"},
			want: "_hq", wantOK: true},
		{name: "ties break by name",
			a: []string{"_hr", "L", "_hq", "R", "_hp", "N"}, b: []string{"_hr", "eps", "_hq", "L"},
			want: "_hq", wantOK: true},
		{name: "iteration handle beats an earlier name",
			a: []string{"_ha", "L", "_it1_p", "eps"}, b: []string{"_ha", "R", "_it1_p", "N"},
			want: "_it1_p", wantOK: true},
		{name: "several iteration handles break by name",
			a:    []string{"_it2_p", "eps", "_it1_q", "L", "_hp", "N"},
			b:    []string{"_hp", "R", "_it1_q", "eps", "_it2_p", "N"},
			want: "_it1_q", wantOK: true},
		{name: "an iteration handle on one side only is not shared",
			a: []string{"_it1_p", "eps", "_hp", "L"}, b: []string{"_hp", "R"},
			want: "_hp", wantOK: true},
	}
	for _, c := range cases {
		got, ok := commonHandle(pathsOf(c.a...), pathsOf(c.b...))
		if got != c.want || ok != c.wantOK {
			t.Errorf("%s: commonHandle = %q, %v; want %q, %v", c.name, got, ok, c.want, c.wantOK)
		}
	}
}

// TestAnyHandleChoice: anyHandle picks the handle with the longest path,
// then the first name; iteration handles get no preference.
func TestAnyHandleChoice(t *testing.T) {
	cases := []struct {
		name   string
		paths  []string
		want   string
		wantOK bool
	}{
		{name: "empty"},
		{name: "single", paths: []string{"_hp", "eps"}, want: "_hp", wantOK: true},
		{name: "longest path wins",
			paths: []string{"_ha", "eps", "_hc", "L", "_hb", "L.(R|N)*"},
			want:  "_hb", wantOK: true},
		{name: "ties break by name",
			paths: []string{"_hc", "L", "_hb", "R", "_hd", "N"},
			want:  "_hb", wantOK: true},
		{name: "no preference for iteration handles",
			paths: []string{"_it1_p", "eps", "_hp", "L"},
			want:  "_hp", wantOK: true},
	}
	for _, c := range cases {
		got, ok := anyHandle(pathsOf(c.paths...))
		if got.Handle != c.want || ok != c.wantOK {
			t.Errorf("%s: anyHandle = %q, %v; want %q, %v", c.name, got.Handle, ok, c.want, c.wantOK)
		}
	}
}
