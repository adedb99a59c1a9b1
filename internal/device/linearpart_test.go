package device

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"wavepipe/internal/circuit"
)

// asTemplated evaluates a device as a templated load and its stamp template
// see it together: the pass under EvalCtx.Templated, then the declared linear
// part, into the same buffers. With charges set the pass is EvalQ.
type asTemplated struct {
	circuit.Device
	charges bool
}

func (d asTemplated) Eval(e *circuit.EvalCtx) {
	e.Templated = true
	if d.charges {
		d.Device.(circuit.ChargeEvaler).EvalQ(e)
	} else {
		d.Device.Eval(e)
	}
	e.Templated = false
	d.Device.(circuit.LinearPartStamper).StampLinearPart(e)
}

// asWhole evaluates a device in full: its Eval, or with charges set its EvalQ.
type asWhole struct {
	circuit.Device
	charges bool
}

func (d asWhole) Eval(e *circuit.EvalCtx) {
	if d.charges {
		d.Device.(circuit.ChargeEvaler).EvalQ(e)
		return
	}
	d.Device.Eval(e)
}

// checkLinearPart holds a device of sys that declares a linear part to its
// contract at every iterate and Alpha0: a pass under EvalCtx.Templated
// followed by StampLinearPart issues what the full Eval issues — M, F, Q, B
// and SNext equal slot for slot in every bit — and a templated EvalQ
// followed by the linear part books what the full EvalQ books.
func checkLinearPart(t *testing.T, what string, sys *circuit.System, d circuit.Device, xs [][]float64) {
	t.Helper()
	split, whole := sys.NewWorkspace(), sys.NewWorkspace()
	for _, charges := range []bool{false, true} {
		if _, ok := d.(circuit.ChargeEvaler); charges && !ok {
			continue
		}
		split.SetDevices([]circuit.Device{asTemplated{d, charges}})
		whole.SetDevices([]circuit.Device{asWhole{d, charges}})
		for _, x := range xs {
			for _, alpha0 := range []float64{0, 1e9, 2.5e11} {
				p := circuit.LoadParams{Time: 1e-9, Alpha0: alpha0, Gmin: 1e-12, SrcScale: 1, NoLimit: true}
				split.Load(x, p)
				whole.Load(x, p)
				vectors := []struct {
					name      string
					got, want []float64
				}{{"Q", split.Q, whole.Q}, {"SNext", split.SNext, whole.SNext}}
				if !charges {
					vectors = append(vectors, []struct {
						name      string
						got, want []float64
					}{{"M", split.Matrix().Values, whole.Matrix().Values}, {"F", split.F, whole.F}, {"B", split.B, whole.B}}...)
				}
				for _, v := range vectors {
					if i := bitsDiffer(v.got, v.want); i >= 0 {
						t.Fatalf("%s (EvalQ %v) at %v, Alpha0 %g: %s[%d] = %x templated plus linear part, %x whole",
							what, charges, x, alpha0, v.name, i, math.Float64bits(v.got[i]), math.Float64bits(v.want[i]))
					}
				}
			}
		}
	}
}

// TestLinearPartContract walks every constructor (everyDevice) and holds
// each device that declares a linear part (circuit.LinearPartStamper) to the
// promise the stamp template relies on, at random iterates; further model
// cards cover the other polarity and the junction capacitances. A device
// that declares a linear part must not also be a LinearStamper, or the
// template would hold its linear part twice.
func TestLinearPartContract(t *testing.T) {
	sys, instances := everyDevice(t)
	rng := rand.New(rand.NewSource(49))
	iterates := func(n int) [][]float64 {
		xs := make([][]float64, 32)
		for k := range xs {
			xs[k] = make([]float64, n)
			for i := range xs[k] {
				xs[k][i] = 2.4*rng.Float64() - 0.4
			}
		}
		return xs
	}
	var declared []string
	for name, d := range instances {
		if _, ok := d.(circuit.LinearPartStamper); !ok {
			continue
		}
		declared = append(declared, name)
		if _, ok := d.(circuit.LinearStamper); ok {
			t.Errorf("%s: %T declares a linear part and is a LinearStamper", name, d)
		}
		checkLinearPart(t, name, sys, d, iterates(sys.N))
	}
	sort.Strings(declared)
	if want := []string{"NewMOSFET", "NewMOSFETEKV"}; !slices.Equal(declared, want) {
		t.Errorf("the devices declaring a linear part are %v, want %v", declared, want)
	}

	junctions := DefaultMOSModel(PMOS)
	junctions.CBD, junctions.CBS = 2e-15, 3e-15
	for _, d := range []circuit.Device{
		NewMOSFET("M1", 0, 1, 2, 3, junctions, 2e-6, 0.5e-6),
		NewMOSFETEKV("M2", 0, 1, 2, 3, DefaultEKVModel(NMOS), 2e-6, 0.5e-6),
	} {
		c := circuit.New("one")
		for _, node := range []string{"d", "g", "s", "b"} {
			c.Node(node)
		}
		c.Add(d)
		c.Add(NewCapacitor("Cb", 3, circuit.Ground, 1e-15)) // the EKV model stamps no bulk row
		one, err := c.Build()
		if err != nil {
			t.Fatal(err)
		}
		checkLinearPart(t, d.Name(), one, d, iterates(one.N))
	}
}
