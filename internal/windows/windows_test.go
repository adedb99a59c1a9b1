package windows

import (
	"math"
	"testing"

	"wavepipe/internal/checkpoint"
	"wavepipe/internal/integrate"
	"wavepipe/internal/sparse"
)

// TestPlanBoundariesSnapsToBreakpoints: on a breakpoint-structured horizon
// every uniform target must snap to the nearest device breakpoint within
// half a window, and the ends must stay pinned at 0 and tstop.
func TestPlanBoundariesSnapsToBreakpoints(t *testing.T) {
	bps := []float64{0.5e-9, 1.0e-9, 4.3e-9, 4.5e-9, 6.3e-9, 8e-9}
	tb := planBoundaries(8e-9, 2, bps)
	if len(tb) != 3 {
		t.Fatalf("W=2: got %d boundaries %v, want 3", len(tb), tb)
	}
	if tb[0] != 0 || tb[2] != 8e-9 {
		t.Fatalf("W=2: ends %v not pinned to [0, tstop]", tb)
	}
	// Target 4e-9: nearest in-range breakpoint is 4.3e-9.
	if tb[1] != 4.3e-9 {
		t.Fatalf("W=2: interior boundary %g, want snap to 4.3e-9", tb[1])
	}
}

// TestPlanBoundariesMergesWithoutBreakpoint: an edge-rich circuit with no
// breakpoint near a target must drop that boundary (merge the two windows)
// rather than cut mid-edge.
func TestPlanBoundariesMergesWithoutBreakpoint(t *testing.T) {
	// Interior breakpoints exist but none near the 5e-9 midpoint target
	// (window is 10n wide at W=2; half-window reach is 2.5n).
	bps := []float64{0.1e-9, 0.2e-9, 9.9e-9, 10e-9}
	tb := planBoundaries(10e-9, 2, bps)
	if len(tb) >= 3 {
		t.Fatalf("expected merge to a single window, got boundaries %v", tb)
	}
}

// TestPlanBoundariesUniformOnSmooth: with no interior breakpoints at all the
// targets stay on the uniform grid — the engines keep full-order history at
// plain-horizon landings, so uniform cuts are accurate there.
func TestPlanBoundariesUniformOnSmooth(t *testing.T) {
	tb := planBoundaries(1e-6, 4, []float64{1e-6})
	want := []float64{0, 0.25e-6, 0.5e-6, 0.75e-6, 1e-6}
	if len(tb) != len(want) {
		t.Fatalf("got %v, want %v", tb, want)
	}
	for i := range want {
		if math.Abs(tb[i]-want[i]) > 1e-18 {
			t.Fatalf("boundary %d = %g, want %g", i, tb[i], want[i])
		}
	}
}

// TestPlanBoundariesMonotone: whatever the breakpoint layout, the kept
// boundaries must be strictly increasing from 0 to tstop.
func TestPlanBoundariesMonotone(t *testing.T) {
	bps := []float64{1e-10, 1.05e-10, 1.1e-10, 5e-9, 5.01e-9, 9.9e-9, 1e-8}
	for W := 2; W <= 16; W++ {
		tb := planBoundaries(1e-8, W, bps)
		if tb[0] != 0 || tb[len(tb)-1] != 1e-8 {
			t.Fatalf("W=%d: ends %v not pinned", W, tb)
		}
		for i := 1; i < len(tb); i++ {
			if tb[i] <= tb[i-1] {
				t.Fatalf("W=%d: boundaries not strictly increasing: %v", W, tb)
			}
		}
		if len(tb) > W+1 {
			t.Fatalf("W=%d: more boundaries than requested windows: %v", W, tb)
		}
	}
}

// TestSeedFromPreservesLU: the window seed must carry the predecessor's LU
// snapshot — restoring it is what keeps the window's first factorization on
// the refactor path (same pivot sequence as the uninterrupted run), which
// the strict bit-identity guarantee depends on.
func TestSeedFromPreservesLU(t *testing.T) {
	st := &checkpoint.State{
		T: 1e-9, H: 1e-12, HUsed: 2e-12, AfterBreak: true,
		LU:        &sparse.LUState{N: 1},
		Hist:      []*integrate.Point{{T: 1e-9, X: []float64{1}, Q: []float64{2}, Qdot: []float64{3}}},
		WaveTimes: []float64{0, 1e-9},
		WaveData:  [][]float64{{0}, {1}},
	}
	s := seedFrom(st, 2e-9, 5e-12)
	if s.LU == nil {
		t.Fatal("seed dropped the LU snapshot")
	}
	if s.TStop != 2e-9 {
		t.Fatalf("seed horizon: %+v", s)
	}
	if s.H != 5e-12 {
		t.Fatalf("post-edge restart state must take the coordinator's step, got %g", s.H)
	}
	if len(s.WaveTimes) != 1 || s.WaveTimes[0] != 1e-9 {
		t.Fatalf("seed waveform not truncated to the seam: %v", s.WaveTimes)
	}
	// The seed's history must be an independent deep copy.
	s.Hist[0].X[0] = 42
	if st.Hist[0].X[0] == 42 {
		t.Fatal("seed history aliases the source state")
	}
	// A full-order continuation state (AfterBreak false) keeps its own step.
	st.AfterBreak = false
	if s2 := seedFrom(st, 2e-9, 5e-12); s2.H != st.H {
		t.Fatalf("continuation state step overridden: %g", s2.H)
	}
}
