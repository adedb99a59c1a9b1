package transient_test

import (
	"testing"

	"wavepipe/internal/circuit"
	"wavepipe/internal/circuits"
	"wavepipe/internal/device"
	"wavepipe/internal/ensemble"
	"wavepipe/internal/transient"
	"wavepipe/internal/wavepipe"
)

// TestChargePassBitIdenticalOnSuite: a point solve closes with a charge pass
// where it used to run one more full assembly, and the claim is that nothing
// downstream can tell — the booked Q, and the limiting state left behind, are
// the full load's in every bit. The old load is kept as the oracle and
// compared at every Commit of every suite circuit through the serial engine,
// of a two-thread backward pipeline (clustered points, several solvers
// committing from the stage gang) and of resistor-scaled ensemble lanes
// (variant device lists under SetDevices).
func TestChargePassBitIdenticalOnSuite(t *testing.T) {
	commits := transient.OracleEveryCommit(t)
	compared := func(t *testing.T, points int) {
		t.Helper()
		if n := commits.Swap(0); int(n) < points {
			t.Fatalf("%d commits compared, the run accepted %d points", n, points)
		}
	}
	for _, b := range circuits.Suite() {
		b := b
		tstop := b.TStop
		if testing.Short() {
			tstop /= 8
		}
		build := func(t *testing.T) *circuit.System {
			sys, err := b.Make().Build()
			if err != nil {
				t.Fatal(err)
			}
			return sys
		}
		t.Run("serial/"+b.Name, func(t *testing.T) {
			res, err := transient.Run(build(t), transient.Options{TStop: tstop})
			if err != nil {
				t.Fatal(err)
			}
			compared(t, res.Stats.Points)
		})
		switch b.Name {
		case "ecl8":
			t.Run("backward2/"+b.Name, func(t *testing.T) {
				res, err := wavepipe.Run(build(t), wavepipe.Options{
					Base: transient.Options{TStop: tstop}, Scheme: wavepipe.SchemeBackward, Threads: 2,
				})
				if err != nil {
					t.Fatal(err)
				}
				compared(t, res.Stats.Points)
			})
		case "ekv30":
			t.Run("lanes/"+b.Name, func(t *testing.T) {
				lanes := make([]ensemble.Lane, 3)
				for i := range lanes {
					lanes[i].Circ = b.Make()
					for _, d := range lanes[i].Circ.Devices() {
						if r, ok := d.(*device.Resistor); ok {
							r.SetValue(r.Value() * (1 + 0.05*float64(i)))
						}
					}
				}
				res, err := ensemble.Run(build(t), lanes, ensemble.Options{Base: transient.Options{TStop: tstop}})
				if err != nil {
					t.Fatal(err)
				}
				points := 0
				for i, l := range res.Lanes {
					if l.Err != nil {
						t.Fatalf("lane %d: %v", i, l.Err)
					}
					points += l.Res.Stats.Points
				}
				compared(t, points)
			})
		}
	}
}
