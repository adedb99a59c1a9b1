package netlist

import (
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// FuzzParse drives the deck parser with arbitrary text, once plainly and once
// with a .PARAM override locked in. Decks arrive over the network (the
// service's job API), so the contract is that Parse and ParseParams return a
// deck or an error for any input — never a panic.
func FuzzParse(f *testing.F) {
	decks, err := filepath.Glob(filepath.Join("..", "..", "testdata", "*.sp"))
	if err != nil || len(decks) == 0 {
		f.Fatalf("no seed decks under testdata: %v", err)
	}
	for _, path := range decks {
		src, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(src), 1e3)
	}
	f.Add(`params and subcircuits
.param r=1k c={1n*2}
.subckt cell a b rr=1
R1 a b {rr}
C1 b 0 {c}
.ends
X1 in out cell rr={r}
V1 in 0 PULSE(0 1 0 1n 1n 5n 10n)
.tran 1n 20n
.end
`, 2.2e3)
	f.Add("", 0.0)
	f.Add("title only", -1.0)

	f.Fuzz(func(t *testing.T, src string, r float64) {
		if d, err := Parse(src); err == nil && d == nil {
			t.Fatal("Parse returned neither a deck nor an error")
		}
		if d, err := ParseParams(src, map[string]float64{"r": r}); err == nil && d == nil {
			t.Fatal("ParseParams returned neither a deck nor an error")
		}
	})
}

// FuzzSplitFields holds the parser's line splitter to strings.Fields on
// arbitrary bytes, appended after a field already in the buffer.
func FuzzSplitFields(f *testing.F) {
	for _, s := range []string{
		"R1 a 0 1k",
		"\tR1\ta\t0\t1k\t",
		"C1 a 0 2p\r",
		"R1\va 0 1k",
		"R1 a\f0 1k",
		"R1\u0085a 0 1k",
		"R1\u00a0a 0 1k",
		"R1 a\u00a0",
		"",
		"   ",
		"  R1 a 0 1k  ",
		"\xff R1",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		want := strings.Fields(s)
		got := appendFields([]string{"kept"}, s)
		if len(got) == 0 || got[0] != "kept" || !slices.Equal(got[1:], want) {
			t.Fatalf("appendFields(%q) = %q, strings.Fields gives %q", s, got, want)
		}
	})
}
