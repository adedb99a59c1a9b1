package device

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"wavepipe/internal/circuit"
)

// asTemplated evaluates a device as a templated load and its stamp template
// see it together: the pass under EvalCtx.Templated, then the declared linear
// part, into the same buffers. With charges set the pass is EvalQ; with bare
// set the linear part is left out, which leaves what the pass books alone.
type asTemplated struct {
	circuit.Device
	charges, bare bool
}

func (d asTemplated) Eval(e *circuit.EvalCtx) {
	e.Templated = true
	if d.charges {
		d.Device.(circuit.ChargeEvaler).EvalQ(e)
	} else {
		d.Device.Eval(e)
	}
	e.Templated = false
	if !d.bare {
		d.Device.(circuit.LinearPartStamper).StampLinearPart(e)
	}
}

// asWhole evaluates a device in full, as no stamp template sees it: it hides
// the device's LinearStamper and LinearPartStamper, so a load sweeps it, and
// clears EvalCtx.Templated around its Eval, or with charges set its EvalQ. A
// workspace of wrapped devices alone is the untemplated reference.
type asWhole struct {
	circuit.Device
	charges bool
}

func (d asWhole) Eval(e *circuit.EvalCtx) {
	templated := e.Templated
	e.Templated = false
	if d.charges {
		d.Device.(circuit.ChargeEvaler).EvalQ(e)
	} else {
		d.Device.Eval(e)
	}
	e.Templated = templated
}

// checkLinearPart holds a device of sys that declares a linear part to its
// contract at every iterate and Alpha0: a pass under EvalCtx.Templated
// followed by StampLinearPart issues what the full Eval issues — M, F, Q, B
// and SNext equal slot for slot in every bit — and a templated EvalQ
// followed by the linear part books what the full EvalQ books. Without
// limiting state its templated EvalQ books nothing at all: the stamp template
// leaves such a device out of the charge pass.
func checkLinearPart(t *testing.T, what string, sys *circuit.System, d circuit.Device, xs [][]float64) {
	t.Helper()
	split, whole, bare := sys.NewWorkspace(), sys.NewWorkspace(), sys.NewWorkspace()
	for _, charges := range []bool{false, true} {
		if _, ok := d.(circuit.ChargeEvaler); charges && !ok {
			continue
		}
		split.SetDevices([]circuit.Device{asTemplated{Device: d, charges: charges}})
		whole.SetDevices([]circuit.Device{asWhole{d, charges}})
		bare.SetDevices([]circuit.Device{asTemplated{Device: d, charges: charges, bare: true}})
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
				if !charges || d.States() > 0 {
					continue
				}
				bare.Load(x, p)
				for i, q := range bare.Q {
					if q != 0 {
						t.Fatalf("%s at %v, Alpha0 %g: keeps no limiting state, and its templated EvalQ books Q[%d] = %g",
							what, x, alpha0, i, q)
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
// template would hold its linear part twice. The template probes a workspace's
// devices at x = 0 and T = 0 with nothing to catch a panic, so every
// constructor's Eval, EvalQ and declared linear part, whole and templated,
// must run there, and so must the probe of the circuit holding them all.
func TestLinearPartContract(t *testing.T) {
	sys, instances := everyDevice(t)
	zero := make([]float64, sys.N)
	atZero := circuit.LoadParams{SrcScale: 1, NoLimit: true}
	for name, d := range instances {
		passes := map[string]circuit.Device{"Eval": asWhole{d, false}}
		if _, ok := d.(circuit.ChargeEvaler); ok {
			passes["EvalQ"] = asWhole{d, true}
		}
		if _, ok := d.(circuit.LinearPartStamper); ok {
			passes["templated Eval and StampLinearPart"] = asTemplated{Device: d}
			passes["templated EvalQ and StampLinearPart"] = asTemplated{Device: d, charges: true}
		}
		for pass, as := range passes {
			ws := sys.NewWorkspace()
			ws.SetDevices([]circuit.Device{as})
			if err := noPanic(func() { ws.Load(zero, atZero) }); err != nil {
				t.Errorf("%s: %s at x = 0, T = 0 panics: %v", name, pass, err)
			}
		}
	}
	if err := noPanic(func() { sys.NewWorkspace().Load(zero, circuit.LoadParams{SrcScale: 1}) }); err != nil {
		t.Errorf("the stamp template probe of every device panics: %v", err)
	}

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

// noPanic runs f and returns what it panicked with, as an error.
func noPanic(f func()) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%v", r)
		}
	}()
	f()
	return nil
}
