package ac

import (
	"math"
	"math/cmplx"
	"os"
	"testing"

	"wavepipe/internal/circuit"
	"wavepipe/internal/netlist"
)

// denseComplexSolve solves a·x = b by Gaussian elimination with partial
// pivoting over ℂ; a and b are overwritten.
func denseComplexSolve(t *testing.T, a [][]complex128, b []complex128) []complex128 {
	t.Helper()
	n := len(a)
	for col := 0; col < n; col++ {
		piv := col
		for r := col + 1; r < n; r++ {
			if cmplx.Abs(a[r][col]) > cmplx.Abs(a[piv][col]) {
				piv = r
			}
		}
		if a[piv][col] == 0 {
			t.Fatalf("dense reference: singular at column %d", col)
		}
		a[col], a[piv] = a[piv], a[col]
		b[col], b[piv] = b[piv], b[col]
		for r := col + 1; r < n; r++ {
			f := a[r][col] / a[col][col]
			if f == 0 {
				continue
			}
			for c := col; c < n; c++ {
				a[r][c] -= f * a[col][c]
			}
			b[r] -= f * b[col]
		}
	}
	x := make([]complex128, n)
	for i := n - 1; i >= 0; i-- {
		s := b[i]
		for c := i + 1; c < n; c++ {
			s -= a[i][c] * x[c]
		}
		x[i] = s / a[i][i]
	}
	return x
}

// TestACMatchesDenseComplexSolve holds the sparse sweep over the real
// equivalent system to a dense complex solve of (G + jωC)·x = b at every
// frequency: ≤ 1e-12 relative in the 2-norm of the whole solution vector.
// The active filter's VCVS row has a structurally zero diagonal; the RLC
// deck carries an inductor branch current.
func TestACMatchesDenseComplexSolve(t *testing.T) {
	opamp, err := os.ReadFile("../../testdata/opamp_filter.sp")
	if err != nil {
		t.Fatal(err)
	}
	decks := []struct{ name, text string }{
		{"opamp_filter", string(opamp)},
		{"rlc", `series RLC with a parallel tank
V1 in 0 DC 1 AC 1
R1 in a 50
L1 a b 10u
C1 b 0 1n
R2 b c 1k
L2 c 0 1m
C2 c 0 220p
.end
`},
	}
	for _, d := range decks {
		t.Run(d.name, func(t *testing.T) {
			deck, err := netlist.Parse(d.text)
			if err != nil {
				t.Fatal(err)
			}
			sys, err := deck.Circuit.Build()
			if err != nil {
				t.Fatal(err)
			}
			all := make([]int, sys.N)
			for i := range all {
				all[i] = i
			}
			res, err := Run(sys, Options{Sweep: Dec, Points: 10, FStart: 100, FStop: 1e9, Record: all})
			if err != nil {
				t.Fatal(err)
			}
			// Rebuild G, C and b at the sweep's operating point.
			ws := sys.NewWorkspace()
			ws.LoadSplit(res.OP, circuit.LoadParams{Gmin: 1e-12, SrcScale: 1})
			g, c := ws.M.ToDense(), ws.MC.ToDense()
			stim := make([]complex128, sys.N)
			for _, d := range sys.Circuit.Devices() {
				if src, ok := d.(circuit.ACSource); ok {
					src.StampAC(stim)
				}
			}
			worst := 0.0
			for k, f := range res.Freqs {
				omega := 2 * math.Pi * f
				a := make([][]complex128, sys.N)
				for i := range a {
					a[i] = make([]complex128, sys.N)
					for j := range a[i] {
						a[i][j] = complex(g[i][j], omega*c[i][j])
					}
				}
				want := denseComplexSolve(t, a, append([]complex128(nil), stim...))
				var diff, norm float64
				for i, w := range want {
					diff += sq(cmplx.Abs(res.Data[k][i] - w))
					norm += sq(cmplx.Abs(w))
				}
				rel := math.Sqrt(diff / norm)
				worst = max(worst, rel)
				if rel > 1e-12 {
					t.Errorf("f=%g: relative difference %.3g from the dense solve", f, rel)
				}
			}
			t.Logf("%d frequencies, worst relative difference %.3g", len(res.Freqs), worst)
		})
	}
}

func sq(v float64) float64 { return v * v }
