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
// the two pipelined schemes, and the three resistor-scaled grid16 lanes. The
// backward2/ rows were regenerated when the Backward offset moved onto the
// step grid (planStage), which lets a backward point's Alpha0 repeat, and
// every pipelined row with the pipelined waveform pins when the pipeline's
// step came to be sized by the serial engine's rule.
var factorCounts = map[string][3]int{
	"serial/grid16":       {1, 62, 432},
	"backward2/grid16":    {2, 106, 658},
	"forward2/grid16":     {2, 139, 580},
	"lane0/grid16":        {1, 62, 432},
	"lane1/grid16":        {1, 62, 432},
	"lane2/grid16":        {1, 53, 360},
	"serial/grid24":       {1, 59, 415},
	"backward2/grid24":    {2, 95, 629},
	"forward2/grid24":     {2, 94, 608},
	"serial/grid32":       {1, 52, 402},
	"backward2/grid32":    {2, 86, 608},
	"forward2/grid32":     {2, 89, 568},
	"serial/ladder400":    {1, 575, 46},
	"backward2/ladder400": {2, 729, 139},
	"forward2/ladder400":  {2, 458, 299},
	"serial/rlctree8":     {2, 3443, 0},
	"backward2/rlctree8":  {3, 1431, 3846},
	"forward2/rlctree8":   {3, 3568, 1850},
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
