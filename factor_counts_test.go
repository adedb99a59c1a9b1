package wavepipe

import (
	"context"
	"fmt"
	"testing"

	"wavepipe/internal/circuits"
	"wavepipe/internal/device"
)

// factorCounts pins how every full-horizon run of a linear suite circuit
// answers its factorization requests: {full, refactorized, reused from the
// store}. A linear solver's store answers by the step's Alpha0 first and by
// the matrix values after; the two must answer the same requests with the
// same sets, so these counts are those of the value-only store the table was
// generated on (go1.24 linux/amd64). Keyed as the waveform pins are: serial,
// the two pipelined schemes, and the three resistor-scaled grid16 lanes.
var factorCounts = map[string][3]int{
	"serial/grid16":       {1, 62, 432},
	"backward2/grid16":    {2, 127, 530},
	"forward2/grid16":     {2, 141, 583},
	"lane0/grid16":        {1, 62, 432},
	"lane1/grid16":        {1, 62, 432},
	"lane2/grid16":        {1, 53, 360},
	"serial/grid24":       {1, 59, 415},
	"backward2/grid24":    {2, 157, 570},
	"forward2/grid24":     {2, 97, 611},
	"serial/grid32":       {1, 52, 402},
	"backward2/grid32":    {2, 224, 609},
	"forward2/grid32":     {2, 89, 570},
	"serial/ladder400":    {1, 575, 46},
	"backward2/ladder400": {2, 693, 142},
	"forward2/ladder400":  {2, 446, 303},
	"serial/rlctree8":     {2, 3443, 0},
	"backward2/rlctree8":  {3, 3715, 1656},
	"forward2/rlctree8":   {3, 3571, 1853},
}

func TestFactorizationCountsPinned(t *testing.T) {
	skipUnpinnable(t)
	check := func(t *testing.T, key string, st Stats) {
		t.Helper()
		got := [3]int{st.FullFactorizations, st.Refactorizations, st.ReusedFactorizations}
		if want, ok := factorCounts[key]; !ok || got != want {
			t.Errorf("%q: {%d, %d, %d}, // pinned %v", key, got[0], got[1], got[2], want)
		}
	}
	configs := []struct {
		name string
		opts TranOptions
	}{
		{"serial", TranOptions{}},
		{"backward2", TranOptions{Scheme: Backward}},
		{"forward2", TranOptions{Scheme: Forward}},
	}
	for _, b := range circuits.Suite() {
		sys, err := b.Make().Build()
		if err != nil {
			t.Fatal(err)
		}
		if !sys.Linear() {
			continue
		}
		for _, cfg := range configs {
			b, cfg := b, cfg
			key := cfg.name + "/" + b.Name
			t.Run(key, func(t *testing.T) {
				sys, err := b.Make().Build()
				if err != nil {
					t.Fatal(err)
				}
				opts := cfg.opts
				opts.TStop = b.TStop
				res, err := RunTransientCtx(context.Background(), sys, opts)
				if err != nil {
					t.Fatal(err)
				}
				check(t, key, res.Stats)
			})
		}
		if b.Name != "grid16" {
			continue
		}
		b := b
		t.Run("lanes/"+b.Name, func(t *testing.T) {
			circs := make([]*Circuit, 3)
			for i := range circs {
				circs[i] = b.Make()
				for _, d := range circs[i].Devices() {
					if r, ok := d.(*device.Resistor); ok {
						r.SetValue(r.Value() * (1 + 0.05*float64(i)))
					}
				}
			}
			res, err := RunEnsembleCircuitsCtx(context.Background(), circs, TranOptions{TStop: b.TStop})
			if err != nil {
				t.Fatal(err)
			}
			for i, l := range res.Lanes {
				if l.Err != nil {
					t.Fatalf("lane %d: %v", i, l.Err)
				}
				check(t, fmt.Sprintf("lane%d/%s", i, b.Name), l.Res.Stats)
			}
		})
	}
}
