package netlist

import (
	"fmt"
	"strings"
	"testing"

	"wavepipe/internal/circuits"
	"wavepipe/internal/device"
)

// ladderDeck renders RCLadder(segments) as deck text driven by one slow
// edge, the deck the reduce_ladder benchmark workload parses (8000
// segments there).
func ladderDeck(tb testing.TB, segments int) string {
	tb.Helper()
	c := circuits.RCLadder(segments)
	for _, d := range c.Devices() {
		if v, ok := d.(*device.VSource); ok {
			v.W = device.Pulse{V1: 0, V2: 1, Delay: 0.1e-6, Rise: 0.2e-6, Fall: 0.2e-6, Width: 1, Period: 2}
		}
	}
	var b strings.Builder
	if err := Write(&b, &Deck{Circuit: c, Tran: &TranSpec{TStep: 12e-8, TStop: 12e-6}}); err != nil {
		tb.Fatal(err)
	}
	return b.String()
}

func BenchmarkParseRCLadderDeck(b *testing.B) {
	benchParse(b, ladderDeck(b, 8000))
}

// BenchmarkParseRCLadderDeckUpper parses the same deck written in capitals,
// where every node name is lower-cased on the way in.
func BenchmarkParseRCLadderDeckUpper(b *testing.B) {
	benchParse(b, strings.ToUpper(ladderDeck(b, 8000)))
}

func benchParse(b *testing.B, src string) {
	b.SetBytes(int64(len(src)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Parse(src); err != nil {
			b.Fatal(err)
		}
	}
}

// summary renders a parsed deck as its title, its elements with node names
// and values, and its .TRAN card.
func summary(d *Deck) string {
	c := d.Circuit
	name := func(n int) string {
		if n < 0 {
			return "0"
		}
		return c.NodeName(n)
	}
	parts := []string{d.Title}
	for _, dev := range c.Devices() {
		switch t := dev.(type) {
		case *device.Resistor:
			parts = append(parts, fmt.Sprintf("%s %s %s %g", t.Name(), name(t.P), name(t.N), t.R))
		case *device.Capacitor:
			parts = append(parts, fmt.Sprintf("%s %s %s %g", t.Name(), name(t.P), name(t.N), t.C))
		default:
			parts = append(parts, fmt.Sprintf("%s %T", dev.Name(), dev))
		}
	}
	if d.Tran != nil {
		parts = append(parts, fmt.Sprintf(".tran %g %g", d.Tran.TStep, d.Tran.TStop))
	}
	return strings.Join(parts, " | ")
}

// TestParseEdgeCases pins what the line reader makes of line endings,
// comments, continuations, .END and .PARAM spellings.
func TestParseEdgeCases(t *testing.T) {
	cases := []struct{ name, src, want string }{
		{"crlf", "crlf deck\r\nR1 a 0 1k\r\nC1 a 0 2p\r\n.tran 1n 10n\r\n.end\r\n", "crlf deck | R1 a 0 1000 | C1 a 0 2e-12 | .tran 1e-09 1e-08"},
		{"tabs", "tabs\n\tR1\ta\t0\t1k\nC1 a\t0 2p \t\n", "tabs | R1 a 0 1000 | C1 a 0 2e-12"},
		{"comments", "* starred title\n* a comment\nR1 a 0 1k ; to end of line\nR2 a b 2k $ also\n;whole line\nC1 b 0 3p\n", "starred title | R1 a 0 1000 | R2 a b 2000 | C1 b 0 3e-12"},
		{"continuation after title", "title\n+ R9 a 0 9k\nR1 a 0 1k\n+\nC1 a 0\n+ 2p\n", "title | R1 a 0 1000 | C1 a 0 2e-12"},
		{"END mid-deck", "t\nR1 a 0 1k\n.END\nR2 a 0 2k\n", "t | R1 a 0 1000"},
		{"end lower with trailing space and comment", "t\nR1 a 0 1k\n.end   ; done\nC1 a 0 1p\n", "t | R1 a 0 1000"},
		{"end as last line", "t\nR1 a 0 1k\n.End", "t | R1 a 0 1000"},
		{"PARAM spellings", "t\n.PARAM r1=2k\n.Param c1 = 3p\n.param  rr={r1*2}\nR1 a 0 {r1}\nR2 a 0 {rr}\nC1 a 0 {c1}\n", "t | R1 a 0 2000 | R2 a 0 4000 | C1 a 0 3e-12"},
	}
	for _, tc := range cases {
		d, err := Parse(tc.src)
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
			continue
		}
		if got := summary(d); got != tc.want {
			t.Errorf("%s:\n got %s\nwant %s", tc.name, got, tc.want)
		}
	}
}

// TestParseValueAllocatesNothing: an upper-case suffix folds in place.
func TestParseValueAllocatesNothing(t *testing.T) {
	for _, s := range []string{"1.5K", "2MEG", "4.7u", "1E3"} {
		if n := testing.AllocsPerRun(100, func() {
			if _, err := ParseValue(s); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("ParseValue(%q) allocates %v objects, want 0", s, n)
		}
	}
}

// TestParseRCLadderAllocsPerLine: parsing a ladder deck allocates by the
// array, not by the line. An element line is split into one reused buffer,
// R and C devices come from one array each, the node table and device list
// are sized from the line count, and a name in capitals is lower-cased into
// one growing arena. A field slice and a device a line made 2.02
// allocations a line (3.52 in capitals); now 0.012 (0.017).
func TestParseRCLadderAllocsPerLine(t *testing.T) {
	src := ladderDeck(t, 2000)
	lines := 0
	for _, ln := range strings.Split(src, "\n") {
		if ln != "" && ln[0] != '*' && ln[0] != '.' {
			lines++
		}
	}
	for _, deck := range []struct{ name, src string }{{"lower", src}, {"upper", strings.ToUpper(src)}} {
		allocs := testing.AllocsPerRun(5, func() {
			if _, err := Parse(deck.src); err != nil {
				t.Fatal(err)
			}
		})
		if per := allocs / float64(lines); per > 0.05 {
			t.Errorf("%s case: %v allocations for %d element lines: %.3f a line, want at most 0.05", deck.name, allocs, lines, per)
		}
	}
}

// TestParseUpperCaseDeckSameCircuit: a deck in capitals parses to the
// circuit of the same deck in lower case, node names folded.
func TestParseUpperCaseDeckSameCircuit(t *testing.T) {
	src := ladderDeck(t, 50)
	lo, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	up, err := Parse(strings.ToUpper(src))
	if err != nil {
		t.Fatal(err)
	}
	if a, b := strings.ToLower(summary(lo)), strings.ToLower(summary(up)); a != b {
		t.Fatalf("upper-case deck parses differently:\n got %s\nwant %s", b, a)
	}
	for i := 0; i < lo.Circuit.NumNodes(); i++ {
		if a, b := lo.Circuit.NodeName(i), up.Circuit.NodeName(i); a != b {
			t.Fatalf("node %d: %q in capitals, %q in lower case", i, b, a)
		}
	}
}
