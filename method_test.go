package wavepipe_test

import (
	"context"
	"math"
	"slices"
	"strings"
	"testing"

	"wavepipe"
	"wavepipe/internal/integrate"
	"wavepipe/internal/transient"
	"wavepipe/wire"
)

// TestRequestedMethodRuns: every method name the command line and the wire
// accept runs that method, and a name or value that names none is refused
// before anything runs. The circuit is an ideal LC tank, which trapezoidal
// integrates without loss and Gear2 damps, so no two methods can give one
// waveform.
func TestRequestedMethodRuns(t *testing.T) {
	const l, cap = 1e-9, 1e-12
	tstop := 10 * 2 * math.Pi * math.Sqrt(l*cap)
	c := wavepipe.NewCircuit("lc")
	top := c.Node("top")
	wavepipe.AddInductor(c, "L1", top, wavepipe.Ground, l)
	wavepipe.AddCapacitor(c, "C1", top, wavepipe.Ground, cap)
	sys, err := c.Build()
	if err != nil {
		t.Fatal(err)
	}
	engine := map[string]integrate.Method{"gear2": integrate.Gear2, "trap": integrate.Trapezoidal}
	names := wavepipe.MethodNames()
	if len(names) != len(engine) {
		t.Fatalf("accepted method names %q, want one per engine method %v", names, engine)
	}
	var runs []*wavepipe.Result
	for _, name := range names {
		m, err := wavepipe.ParseMethod(name)
		if err != nil {
			t.Fatal(err)
		}
		want, ok := engine[name]
		if !ok {
			t.Fatalf("accepted method %q has no engine method", name)
		}
		got, err := wavepipe.RunTransientCtx(context.Background(), sys, wavepipe.TranOptions{
			TStop: tstop, Method: m, UIC: true, IC: map[string]float64{"top": 1},
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		ref, err := transient.Run(sys, transient.Options{
			TStop: tstop, Method: want, UIC: true, IC: map[int]float64{top: 1},
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !sameWaveform(got, ref) {
			t.Fatalf("%s: the facade's waveform (%d points) is not the engine's under %v (%d points)",
				name, len(got.W.Times), want, len(ref.W.Times))
		}
		for i, prev := range runs {
			if sameWaveform(got, prev) {
				t.Fatalf("%s ran the same waveform as %s", name, names[i])
			}
		}
		runs = append(runs, got)
	}

	if m, err := wavepipe.ParseMethod(""); err != nil || m != wavepipe.Gear2 {
		t.Errorf(`ParseMethod(""): %v, %v; want the default, gear2`, m, err)
	}
	for _, name := range []string{"be", "BE", "gear", "Gear2"} {
		if _, err := wavepipe.ParseMethod(name); err == nil || !strings.Contains(err.Error(), "(gear2, trap)") {
			t.Errorf("ParseMethod(%q): %v, want a refusal naming gear2 and trap", name, err)
		}
		req := wire.JobRequest{SchemaVersion: wire.SchemaVersion, Deck: "x", Options: &wire.TranOptions{TStop: tstop, Method: name}}
		if _, err := req.ToJobSpec(); err == nil {
			t.Errorf("wire method %q accepted", name)
		}
	}
	for _, m := range []wavepipe.Method{-1, 2, 9} {
		res, err := wavepipe.RunTransientCtx(context.Background(), sys, wavepipe.TranOptions{TStop: tstop, Method: m})
		if err == nil || res != nil || !strings.Contains(err.Error(), "not an integration method") {
			t.Errorf("Method(%d): result %v, error %v; want a refusal and no run", int(m), res != nil, err)
		}
	}
}

// sameWaveform reports whether two results hold the same points.
func sameWaveform(a, b *wavepipe.Result) bool {
	if !slices.Equal(a.W.Times, b.W.Times) || len(a.W.Data) != len(b.W.Data) {
		return false
	}
	for i := range a.W.Data {
		if !slices.Equal(a.W.Data[i], b.W.Data[i]) {
			return false
		}
	}
	return true
}
