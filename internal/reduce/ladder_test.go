package reduce_test

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"wavepipe/internal/circuits"
	"wavepipe/internal/device"
	"wavepipe/internal/netlist"
	"wavepipe/internal/reduce"
)

// parsedLadder returns RCLadder(segments) driven by one slow edge, parsed
// from its deck text: the circuit of the reduce_ladder benchmark workload
// (8000 segments there).
func parsedLadder(tb testing.TB, segments int) *netlist.Deck {
	tb.Helper()
	c := circuits.RCLadder(segments)
	for _, d := range c.Devices() {
		if v, ok := d.(*device.VSource); ok {
			v.W = device.Pulse{V1: 0, V2: 1, Delay: 0.1e-6, Rise: 0.2e-6, Fall: 0.2e-6, Width: 1, Period: 2}
		}
	}
	var src strings.Builder
	if err := netlist.Write(&src, &netlist.Deck{Circuit: c, Tran: &netlist.TranSpec{TStep: 12e-8, TStop: 12e-6}}); err != nil {
		tb.Fatal(err)
	}
	dk, err := netlist.Parse(src.String())
	if err != nil {
		tb.Fatal(err)
	}
	return dk
}

// BenchmarkReduceRCLadder lumps the circuit of the reduce_ladder benchmark
// workload at the default error budget of 0.02.
func BenchmarkReduceRCLadder(b *testing.B) {
	dk := parsedLadder(b, 8000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := reduce.Reduce(dk.Circuit, reduce.Options{Tol: 0.02, Keep: []string{"out"}}); err != nil {
			b.Fatal(err)
		}
	}
}

// TestReduceRCLadderAllocs: lumping the 8000-segment ladder allocates by the
// array, whatever the ladder's length. Every suppressed node's expansion
// terms are a window of one array; a slice of its own each made 8 102
// allocations here, and the pass now makes 110.
func TestReduceRCLadderAllocs(t *testing.T) {
	dk := parsedLadder(t, 8000)
	allocs := testing.AllocsPerRun(3, func() {
		if _, _, err := reduce.Reduce(dk.Circuit, reduce.Options{Tol: 0.02, Keep: []string{"out"}}); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 200 {
		t.Fatalf("Reduce(RCLadder(8000)) makes %v allocations, want at most 200", allocs)
	}
}

// TestLadderSpanSumsBitIdentical: a lumped span resistor is the
// left-to-right sum of the resistors it replaces, and a suppressed node's
// expansion weight is that sum up to the node over the span's, to the bit.
// The values jitter well inside the uniformity check, so the sums round and
// a prefix difference (P[hi]-P[lo]) in place of the running sum shows.
func TestLadderSpanSumsBitIdentical(t *testing.T) {
	const n = 2000
	c := circuits.RCLadder(n)
	// Path positions: in = 0, nK = K, out = n+1; r[i] joins i to i+1.
	pos := map[string]int{"in": 0, "out": n + 1}
	for k := 1; k <= n; k++ {
		pos[fmt.Sprintf("n%d", k)] = k
	}
	r := make([]float64, n+1)
	for _, d := range c.Devices() {
		if res, ok := d.(*device.Resistor); ok {
			lo := min(pos[c.NodeName(res.P)], pos[c.NodeName(res.N)])
			res.R = 7.3 * (1 + 1e-7*float64(lo%7))
			r[lo] = res.R
		}
	}
	sum := func(lo, hi int) float64 {
		s := 0.0
		for _, v := range r[lo:hi] {
			s += v
		}
		return s
	}

	rc, info, err := reduce.Reduce(c, reduce.Options{Tol: 0.02, Keep: []string{"out", "n700", "n1301"}})
	if err != nil {
		t.Fatal(err)
	}
	var kept []int // path positions that survive, ascending
	for o, m := range info.NodeMap {
		if m >= 0 {
			kept = append(kept, pos[c.NodeName(o)])
		}
	}
	slices.Sort(kept)
	if !slices.Contains(kept, 700) || !slices.Contains(kept, 1301) || kept[0] != 0 || kept[len(kept)-1] != n+1 {
		t.Fatalf("kept positions %v: want 0, 700, 1301 and %d among them", kept, n+1)
	}

	spans := 0
	for _, d := range rc.Devices() {
		res, ok := d.(*device.Resistor)
		if !ok {
			continue
		}
		a, b := pos[rc.NodeName(res.P)], pos[rc.NodeName(res.N)]
		lo, hi := min(a, b), max(a, b)
		if want := sum(lo, hi); math.Float64bits(res.R) != math.Float64bits(want) {
			t.Errorf("span %d..%d: R = %v, want the left-to-right sum %v", lo, hi, res.R, want)
		}
		spans++
	}
	if spans != len(kept)-1 {
		t.Fatalf("%d span resistors for %d kept positions", spans, len(kept))
	}

	suppressed := 0
	for o, m := range info.NodeMap {
		if m >= 0 {
			continue
		}
		q := pos[c.NodeName(o)]
		j, _ := slices.BinarySearch(kept, q)
		lo, hi := kept[j-1], kept[j]
		w := sum(lo, q) / sum(lo, hi)
		e := info.Expansion[o]
		if len(e) != 2 || math.Float64bits(e[0].W) != math.Float64bits(1-w) || math.Float64bits(e[1].W) != math.Float64bits(w) {
			t.Fatalf("node n%d in span %d..%d: expansion %+v, want weights %v and %v", q, lo, hi, e, 1-w, w)
		}
		suppressed++
	}
	if suppressed != n+2-len(kept) {
		t.Fatalf("%d suppressed nodes, want %d", suppressed, n+2-len(kept))
	}
}
