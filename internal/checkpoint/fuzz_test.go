package checkpoint

import (
	"errors"
	"testing"

	"wavepipe/internal/faults"
	"wavepipe/internal/integrate"
)

// FuzzDecode drives Decode with arbitrary bytes. The contract under test:
// Decode either returns a structurally valid *State or a typed
// faults.SimError wrapping ErrBadCheckpoint — it never panics, and a
// success must survive a re-encode/re-decode round trip (no silently
// loaded garbage).
func FuzzDecode(f *testing.F) {
	// Seed corpus: valid encodings of representative states plus the
	// classic hostile shapes (empty, header-only, huge length prefix).
	full := &State{
		N: 2, NumStates: 1, NumDevices: 2, PatternNNZ: 3,
		TStop: 1e-6, Method: 2,
		T: 2e-7, H: 1e-8, HUsed: 1e-8,
		Hist: []*integrate.Point{
			{T: 1e-7, X: []float64{1, 2}, Q: []float64{3, 4}, Qdot: []float64{5, 6}},
			{T: 2e-7, X: []float64{7, 8}, Q: []float64{9, 10}, Qdot: []float64{11, 12}},
		},
		SPrev: []float64{0.5}, SNext: []float64{0.6},
		Stats:     make([]int64, Counters),
		Recovery:  []RecoveryEvent{{T: 1.5e-7, Kind: "damping", Detail: "d"}},
		WaveNames: []string{"a"},
		WaveIndex: []int{1},
		WaveTimes: []float64{1e-7, 2e-7},
		WaveData:  [][]float64{{1}, {2}},
	}
	f.Add(Encode(full))
	minimal := &State{
		N: 1, NumStates: 0, NumDevices: 1, PatternNNZ: 1,
		TStop: 1, Method: 0, T: 0.5, H: 0.1,
		Hist:  []*integrate.Point{{T: 0.5, X: []float64{1}, Q: []float64{0}, Qdot: []float64{0}}},
		SPrev: []float64{}, SNext: []float64{},
		Stats:     make([]int64, Counters),
		WaveTimes: []float64{0.5}, WaveData: [][]float64{{}},
	}
	f.Add(Encode(minimal))
	f.Add([]byte{})
	f.Add([]byte("WPCP"))
	f.Add([]byte("WPCP\x02\x00\x00\x00"))
	f.Add([]byte("WPCP\x02\x00\x00\x00\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff"))
	bigLen := Encode(minimal)
	if len(bigLen) > 120 {
		// Smash a plausible length-prefix region with 0xFF so the
		// count-vs-remaining guard is exercised from the corpus on.
		for i := 100; i < 112; i++ {
			bigLen[i] = 0xff
		}
	}
	f.Add(bigLen)

	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Decode(data) // must not panic
		if err != nil {
			if !errors.Is(err, faults.ErrBadCheckpoint) {
				t.Fatalf("decode error %v does not wrap ErrBadCheckpoint", err)
			}
			var se *faults.SimError
			if !errors.As(err, &se) || se.Phase != "checkpoint" {
				t.Fatalf("decode error %v is not a checkpoint-phase SimError", err)
			}
			return
		}
		// Accepted input: the state must be internally consistent enough to
		// encode deterministically and round-trip.
		re := Encode(s)
		s2, err := Decode(re)
		if err != nil {
			t.Fatalf("re-decode of accepted state failed: %v", err)
		}
		if len(s2.Hist) != len(s.Hist) || len(s2.WaveTimes) != len(s.WaveTimes) {
			t.Fatal("re-decoded state lost structure")
		}
	})
}
