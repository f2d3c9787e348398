package automata

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/pathexpr"
)

// This file holds the reference oracle for the language-size facts the
// rest of the stack derives from expressions alone (pathexpr's
// Node.Singleton): the cardinality class, unique word and longest word of
// a compiled DFA's language.  Nothing outside the tests asks a DFA for
// them.

// Cardinality classifies the size of the language.
type Cardinality int

// Language cardinality classes.
const (
	CardEmpty    Cardinality = iota // no words
	CardOne                         // exactly one word
	CardFinite                      // more than one word, finitely many
	CardInfinite                    // infinitely many words
)

func (c Cardinality) String() string {
	switch c {
	case CardEmpty:
		return "empty"
	case CardOne:
		return "one"
	case CardFinite:
		return "finite"
	case CardInfinite:
		return "infinite"
	}
	return "unknown"
}

// Cardinality returns the language-size class and, when the class is
// CardOne, the unique word, read off the automaton: a cycle among useful
// states means infinitely many words, else the accepted words are counted
// over the DAG.
func (d *DFA) Cardinality() (Cardinality, []string) {
	k := d.alphabet.Size()
	useful := d.usefulStates()
	if !useful[0] {
		return CardEmpty, nil
	}
	// Detect a cycle among useful states: any cycle implies infinitely many
	// words (every useful state lies on a path from start to accept).
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := make([]int, len(d.accept))
	var cyclic bool
	var dfs func(s int)
	dfs = func(s int) {
		color[s] = gray
		for c := 0; c < k; c++ {
			t := int(d.trans[s*k+c])
			if !useful[t] {
				continue
			}
			switch color[t] {
			case gray:
				cyclic = true
			case white:
				dfs(t)
			}
		}
		color[s] = black
	}
	dfs(0)
	if cyclic {
		return CardInfinite, nil
	}
	// Acyclic: count accepted words by memoized DAG counting, capped at 2.
	counts := make([]int, len(d.accept))
	for i := range counts {
		counts[i] = -1
	}
	var count func(s int) int
	count = func(s int) int {
		if counts[s] >= 0 {
			return counts[s]
		}
		n := 0
		if d.accept[s] {
			n = 1
		}
		for c := 0; c < k; c++ {
			t := int(d.trans[s*k+c])
			if useful[t] {
				n += count(t)
			}
			if n > 2 {
				n = 3
				break
			}
		}
		counts[s] = n
		return n
	}
	switch n := count(0); {
	case n == 0:
		return CardEmpty, nil
	case n == 1:
		w, _ := d.uniqueWord(useful)
		return CardOne, w
	default:
		return CardFinite, nil
	}
}

// uniqueWord extracts the single accepted word from a DFA already known to
// accept exactly one word.
func (d *DFA) uniqueWord(useful []bool) ([]string, bool) {
	k := d.alphabet.Size()
	var word []string
	s := 0
	for steps := 0; steps <= len(d.accept)*k+1; steps++ {
		if d.accept[s] {
			// The unique word ends here unless a useful continuation exists;
			// with exactly one word there cannot be both.
			hasNext := false
			for c := 0; c < k; c++ {
				if useful[d.trans[s*k+c]] {
					hasNext = true
				}
			}
			if !hasNext {
				return word, true
			}
		}
		advanced := false
		for c := 0; c < k; c++ {
			t := int(d.trans[s*k+c])
			if useful[t] {
				word = append(word, d.alphabet.symbols[c])
				s = t
				advanced = true
				break
			}
		}
		if !advanced {
			return word, d.accept[s]
		}
	}
	return nil, false
}

// usefulStates marks states that are both reachable from the start state and
// can reach an accepting state.
func (d *DFA) usefulStates() []bool {
	k := d.alphabet.Size()
	n := len(d.accept)
	reach := make([]bool, n)
	stack := []int32{0}
	reach[0] = true
	for len(stack) > 0 {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for c := 0; c < k; c++ {
			t := d.trans[int(s)*k+c]
			if !reach[t] {
				reach[t] = true
				stack = append(stack, t)
			}
		}
	}
	// Reverse reachability from accepting states.
	rev := make([][]int32, n)
	for s := 0; s < n; s++ {
		for c := 0; c < k; c++ {
			t := d.trans[s*k+c]
			rev[t] = append(rev[t], int32(s))
		}
	}
	coreach := make([]bool, n)
	for s := 0; s < n; s++ {
		if d.accept[s] && !coreach[s] {
			coreach[s] = true
			stack = append(stack, int32(s))
		}
	}
	for len(stack) > 0 {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, p := range rev[s] {
			if !coreach[p] {
				coreach[p] = true
				stack = append(stack, p)
			}
		}
	}
	useful := make([]bool, n)
	for s := 0; s < n; s++ {
		useful[s] = reach[s] && coreach[s]
	}
	return useful
}

// MaxWordLen returns the length of the longest accepted word, or
// math.MaxInt for infinite languages, or -1 for the empty language.
func (d *DFA) MaxWordLen() int {
	card, _ := d.Cardinality()
	switch card {
	case CardEmpty:
		return -1
	case CardInfinite:
		return math.MaxInt
	}
	// Longest path in the useful-state DAG.
	k := d.alphabet.Size()
	useful := d.usefulStates()
	memo := make([]int, len(d.accept))
	for i := range memo {
		memo[i] = -2
	}
	var longest func(s int) int
	longest = func(s int) int {
		if memo[s] != -2 {
			return memo[s]
		}
		best := -1
		if d.accept[s] {
			best = 0
		}
		memo[s] = best // provisional; DAG so no revisits on a cycle
		for c := 0; c < k; c++ {
			t := int(d.trans[s*k+c])
			if !useful[t] {
				continue
			}
			if l := longest(t); l >= 0 && l+1 > best {
				best = l + 1
			}
		}
		memo[s] = best
		return best
	}
	return longest(0)
}

// randRawExpr draws a random expression built without the smart
// constructors, so ∅ parts, ε parts, single-part concatenations, nested
// closures and closures of ε or ∅ survive into the tree.  Every fourth
// alternation repeats one word under two structures, so alternatives with
// equal words occur often.
func randRawExpr(rng *rand.Rand, fields []string, depth int) pathexpr.Expr {
	if depth <= 0 || rng.Intn(4) == 0 {
		switch rng.Intn(8) {
		case 0:
			return pathexpr.Empty{}
		case 1:
			return pathexpr.Eps
		}
		return pathexpr.F(fields[rng.Intn(len(fields))])
	}
	sub := func() pathexpr.Expr { return randRawExpr(rng, fields, depth-1) }
	switch rng.Intn(5) {
	case 0:
		parts := make([]pathexpr.Expr, 1+rng.Intn(3))
		for i := range parts {
			parts[i] = sub()
		}
		return pathexpr.Concat{Parts: parts}
	case 1:
		if rng.Intn(4) == 0 {
			w := randWord(rng, fields, 3)
			return pathexpr.Alt{Alts: []pathexpr.Expr{pathexpr.FromWord(w), pathexpr.Concat{Parts: []pathexpr.Expr{pathexpr.Eps, pathexpr.FromWord(w)}}}}
		}
		return pathexpr.Alt{Alts: []pathexpr.Expr{sub(), sub()}}
	case 2:
		return pathexpr.Star{Inner: sub()}
	case 3:
		return pathexpr.Plus{Inner: sub()}
	}
	return pathexpr.Concat{Parts: []pathexpr.Expr{sub(), sub()}}
}

// TestSingletonMatchesCardinality: the structural size class an interned
// node caches, and its one word, agree with the compiled DFA's Cardinality
// on random expressions whose fields all lie in the alphabet.
func TestSingletonMatchesCardinality(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	fields := []string{"a", "b"}
	a := NewAlphabet(fields...)
	var seen [3]int
	for trial := 0; trial < 20000; trial++ {
		e := randRawExpr(rng, fields, 4)
		card, dw := MustCompile(e, a).Cardinality()
		want := map[Cardinality]pathexpr.Count{CardEmpty: pathexpr.NoWord, CardOne: pathexpr.OneWord,
			CardFinite: pathexpr.ManyWords, CardInfinite: pathexpr.ManyWords}[card]
		got, w := pathexpr.Intern(e).Singleton()
		if got != want || got == pathexpr.OneWord && !slices.Equal(w, dw) {
			t.Fatalf("%v: Singleton() = %v %q, DFA says %v %q", e, got, w, card, dw)
		}
		seen[got]++
	}
	for c, n := range seen {
		if n < 100 {
			t.Errorf("only %d expressions of class %d; the generator lost its power", n, c)
		}
	}
}
