package wavepipe

import (
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"testing"

	"wavepipe/internal/circuits"
	"wavepipe/internal/device"
)

// suiteWaveformHashes pins the Serial waveform of every suite circuit at its
// full horizon, all node voltages recorded: FNV-1a over the IEEE bits of
// every time, every sample and the final solution. The table was generated
// on the commit before exact factorization reuse and the compiled refactor
// kernel went in (PR 12, go1.24 linux/amd64); both are claimed bit-identical,
// so any change that moves one of these moved a waveform. A deliberate
// numerical change regenerates the table from the failure messages: PR 19
// (one Newton iteration per linear solve, steps on short mantissas) did so
// for every row naming grid16, grid24, grid32, ladder400 or rlctree8, here
// and in the three tables below; every nonlinear row is as first recorded.
// Assembling every linear System through its stamp template regenerated the
// same rows once more, since the template sums stamps in another order than
// the device sweep, and so did solving each linear point directly for its
// iterate, (G + Alpha0·C)·x = B − qhist, in place of one certified Newton
// step from a prediction: the same step sequence and counts, values moved by
// rounding. The minimum-fill ordering regenerated the rows whose elimination
// order it changed, those naming grid16, grid24, grid32 or ecl8 here and
// below; rounding the Backward offset onto the step grid the backward2/ rows
// of the five linear circuits; and holding a nonlinear system's step until
// its LTE stencil is full (transient.Stepper.holdStep) every serial-engine
// row of the seven nonlinear circuits: their suite rows, the three ekv30 lanes
// and the two rect1k window rows. Assembling a nonlinear system's linear
// devices and MOSFET capacitances from the stamp template regenerated every
// row naming rect1k, amp10M, ring9, inv50, nand5, ekv30 or ecl8, here and
// below. lane0/grid16 equals grid16.
var suiteWaveformHashes = map[string]uint64{
	"grid16":    0xeff6c42291956439,
	"grid24":    0x82f926a5dd08f6f1,
	"grid32":    0xdf5e71ca6c6ff76b,
	"ladder400": 0xd1009811fcbf5f10,
	"rlctree8":  0xc9ceee1dc918f5c1,
	"rect1k":    0x357f91d64f942afd,
	"amp10M":    0xfc8376b76b056e43,
	"ring9":     0x1acb493c24866cbc,
	"inv50":     0x0dd1f7b399f68173,
	"nand5":     0x820ac7bbf4fccce4,
	"ekv30":     0x1605e7a1b1c9ee53,
	"ecl8":      0xbff98ee6b57ecd35,
}

// engineWaveformHashes extends the pin to the other step-control loops, one
// row per engine configuration the step-controller fold must not move: the
// two pipelined schemes on every suite circuit, three resistor-scaled
// ensemble lanes (scale 1, 1.05, 1.1; one hash per lane) and a strict
// four-window run. Generated on the commit before that fold (go1.24
// linux/amd64), keyed "config/circuit"; a scheme's key names the points its
// stage solves, two for backward2 and forward2. Every backward2/ and
// forward2/ row was regenerated when the pipeline's step came to be sized by
// the serial engine's rule (transient.Stepper.Land: the held step, the refill
// from the LTE stencil, t = 0 included) and the sizing spacing was floored
// at the zero-stable step ratio (integrate.Control.NextStep).
var engineWaveformHashes = map[string]uint64{
	"backward2/grid16":      0x035e0c72667dc8a8,
	"forward2/grid16":       0x295aa9372809769d,
	"lane0/grid16":          0xeff6c42291956439,
	"lane1/grid16":          0x6102c77ec86e9a5e,
	"lane2/grid16":          0x6e31491f7c8f2f76,
	"backward2/grid24":      0x055423ea95db044d,
	"forward2/grid24":       0x5d6079fd9914d82d,
	"backward2/grid32":      0x6309192f715fce71,
	"forward2/grid32":       0xa3cdacce51ef8cf9,
	"backward2/ladder400":   0xe1357561a237373c,
	"forward2/ladder400":    0x95bf23ff89fe8d35,
	"backward2/rlctree8":    0x7a7825cf55181d61,
	"forward2/rlctree8":     0x40a5826391fcb65f,
	"backward2/rect1k":      0xc68408c8c9551057,
	"forward2/rect1k":       0x59fd5448e9b22bea,
	"windows4strict/rect1k": 0xa143067088e49205,
	"backward2/amp10M":      0x10833ab08549f52c,
	"forward2/amp10M":       0x225ed093634e82c7,
	"backward2/ring9":       0xffd742dea5dd9011,
	"forward2/ring9":        0x8b93f966eee7cd69,
	"backward2/inv50":       0xa3d6ae92710e742f,
	"forward2/inv50":        0x8e393a0a9f7fb7de,
	"backward2/nand5":       0xe1d3590ab30461fc,
	"forward2/nand5":        0xe9f3a8dc41b512c9,
	"backward2/ekv30":       0x4389decf2b19edda,
	"forward2/ekv30":        0xd9f6df9e3a37af17,
	"lane0/ekv30":           0x1605e7a1b1c9ee53,
	"lane1/ekv30":           0x1605e7a1b1c9ee53,
	"lane2/ekv30":           0x1605e7a1b1c9ee53,
	"backward2/ecl8":        0x4a0e92eff6f89dc9,
	"forward2/ecl8":         0x806ea4e5754795f9,
}

// iterationWaveformHashes pins the configuration the Newton-iteration fold
// touches and no row above covers: a default (non-strict) four-window run,
// keyed "config/circuit" (go1.24 linux/amd64). A CoreBudget selects no load
// path, and TestCoreBudgetNeverChangesAWaveform holds budgeted runs to the
// rows of their unbudgeted twins. The two devbypass/ rows were recorded while
// the stamp template ran only behind the DeviceBypass option; a linear
// circuit now always assembles from its template, so they run at the default
// options and equal the suite rows of grid16 and ladder400, regenerated with
// them when each linear point became one direct solve and, for grid16, under
// the minimum-fill ordering.
var iterationWaveformHashes = map[string]uint64{
	"devbypass/ladder400": 0xd1009811fcbf5f10,
	"devbypass/grid16":    0xeff6c42291956439,
	"windows4/rect1k":     0xa143067088e49205,
}

func waveformHash(res *Result) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v float64) {
		b := math.Float64bits(v)
		for i := range buf {
			buf[i] = byte(b >> (8 * i))
		}
		h.Write(buf[:])
	}
	for k, tm := range res.W.Times {
		put(tm)
		for _, v := range res.W.Data[k] {
			put(v)
		}
	}
	for _, v := range res.FinalX {
		put(v)
	}
	return h.Sum64()
}

// skipUnpinnable skips a hash-table test where the table does not apply.
func skipUnpinnable(t *testing.T) {
	t.Helper()
	if testing.Short() {
		t.Skip("full-horizon suite run")
	}
	if runtime.GOARCH != "amd64" {
		// Other back ends fuse multiply-adds, which legitimately moves the
		// last bit; the tables are an amd64 record.
		t.Skipf("hash tables recorded on amd64, running on %s", runtime.GOARCH)
	}
}

func checkPinned(t *testing.T, table map[string]uint64, key string, res *Result) {
	t.Helper()
	if got, want := waveformHash(res), table[key]; got != want {
		t.Errorf("%q: 0x%016x, // pinned 0x%016x; %d points", key, got, want, res.Stats.Points)
	}
}

func TestSuiteWaveformHashesPinned(t *testing.T) {
	skipUnpinnable(t)
	for _, b := range circuits.Suite() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			sys, err := b.Make().Build()
			if err != nil {
				t.Fatal(err)
			}
			res, err := RunTransientCtx(context.Background(), sys, TranOptions{TStop: b.TStop})
			if err != nil {
				t.Fatal(err)
			}
			checkPinned(t, suiteWaveformHashes, b.Name, res)
		})
	}
}

func TestEngineWaveformHashesPinned(t *testing.T) {
	skipUnpinnable(t)
	pipelined := []struct {
		name string
		opts TranOptions
	}{
		{"backward2", TranOptions{Scheme: Backward}},
		{"forward2", TranOptions{Scheme: Forward}},
	}
	for _, b := range circuits.Suite() {
		for _, cfg := range pipelined {
			b, cfg := b, cfg
			t.Run(cfg.name+"/"+b.Name, func(t *testing.T) {
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
				checkPinned(t, engineWaveformHashes, cfg.name+"/"+b.Name, res)
			})
		}
		if b.Name == "ekv30" || b.Name == "grid16" {
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
					checkPinned(t, engineWaveformHashes, fmt.Sprintf("lane%d/%s", i, b.Name), l.Res)
				}
			})
		}
		if b.Name == "rect1k" {
			b := b
			t.Run("windows4strict/"+b.Name, func(t *testing.T) {
				sys, err := b.Make().Build()
				if err != nil {
					t.Fatal(err)
				}
				res, err := RunTransientCtx(context.Background(), sys, TranOptions{
					TStop: b.TStop, Windows: 4, CoarseOpts: CoarseOptions{Strict: true},
				})
				if err != nil {
					t.Fatal(err)
				}
				checkPinned(t, engineWaveformHashes, "windows4strict/"+b.Name, res)
			})
		}
	}
}

func TestIterationWaveformHashesPinned(t *testing.T) {
	skipUnpinnable(t)
	run := func(key string, b circuits.Benchmark, opts TranOptions) {
		t.Run(key, func(t *testing.T) {
			sys, err := b.Make().Build()
			if err != nil {
				t.Fatal(err)
			}
			opts.TStop = b.TStop
			res, err := RunTransientCtx(context.Background(), sys, opts)
			if err != nil {
				t.Fatal(err)
			}
			checkPinned(t, iterationWaveformHashes, key, res)
		})
	}
	for _, b := range circuits.Suite() {
		switch b.Name {
		case "ladder400", "grid16":
			run("devbypass/"+b.Name, b, TranOptions{})
		}
		if b.Name == "rect1k" {
			run("windows4/"+b.Name, b, TranOptions{Windows: 4})
		}
	}
}
