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
var suiteWaveformHashes = map[string]uint64{
	"grid16":    0x724b86592971174c,
	"grid24":    0x750803ed9bcef265,
	"grid32":    0xbe6ccbdc7b421f07,
	"ladder400": 0x714360c38737d9f7,
	"rlctree8":  0x29c30656ba554e95,
	"rect1k":    0x25d216e8df7be17c,
	"amp10M":    0xaa0ac22efaca99ea,
	"ring9":     0x99ff3b004ea3cb04,
	"inv50":     0x05af7cf0894e21a9,
	"nand5":     0x687965018eefb983,
	"ekv30":     0x4f40d15d8b902544,
	"ecl8":      0xe1502373c2e813ca,
}

// engineWaveformHashes extends the pin to the other step-control loops, one
// row per engine configuration the step-controller fold (PR 14) must not
// move: the pipelined schemes on every suite circuit, three resistor-scaled
// ensemble lanes (scale 1, 1.05, 1.1; one hash per lane) and a strict
// four-window run. Generated on the commit before the fold (PR 13, go1.24
// linux/amd64), keyed "config/circuit".
var engineWaveformHashes = map[string]uint64{
	"backward2/grid16":      0xa6de1173325819c1,
	"forward2/grid16":       0xdff95f52852425c0,
	"combined3/grid16":      0x9b3f063cca053704,
	"lane0/grid16":          0x724b86592971174c,
	"lane1/grid16":          0x5002bed8f1ba3920,
	"lane2/grid16":          0x4525837ea18d07be,
	"backward2/grid24":      0xc28e1083454fa9aa,
	"forward2/grid24":       0x41452080376195eb,
	"combined3/grid24":      0x0e4e515987dfdf61,
	"backward2/grid32":      0x7e7e05d48bd880cc,
	"forward2/grid32":       0x061ffaa758c40b9a,
	"combined3/grid32":      0x026e6c7193d226a9,
	"backward2/ladder400":   0x722b9d6f9e6d8a56,
	"forward2/ladder400":    0x0f4f2c2bf7eced65,
	"combined3/ladder400":   0x08f3f838bd43ee37,
	"backward2/rlctree8":    0xbd1abae2b7f8cebf,
	"forward2/rlctree8":     0x612abf753537de71,
	"combined3/rlctree8":    0xa1e7be43a06caf57,
	"backward2/rect1k":      0x2bfd943f096f70f7,
	"forward2/rect1k":       0xedd7b7706c6701d1,
	"combined3/rect1k":      0xbd8835c6451a0e89,
	"windows4strict/rect1k": 0x2baab5bf34976a41,
	"backward2/amp10M":      0xfba24c90016f478b,
	"forward2/amp10M":       0xb224ceb97a37fafc,
	"combined3/amp10M":      0x3b57f9cf47131db6,
	"backward2/ring9":       0x63e1fe245630b4ef,
	"forward2/ring9":        0xe976cdaf5f72b007,
	"combined3/ring9":       0x056c7fa8e885b74d,
	"backward2/inv50":       0xc250cf4d7884f459,
	"forward2/inv50":        0x0ee790e8aeb5b0a5,
	"combined3/inv50":       0xb0bfc78ecdffaaa5,
	"backward2/nand5":       0x8c8fbb8ddf022ab4,
	"forward2/nand5":        0x147d28f276c455a6,
	"combined3/nand5":       0x3e90329c3cc36098,
	"backward2/ekv30":       0x8b8935fceec028a2,
	"forward2/ekv30":        0x50c90d42e0c9ed5b,
	"combined3/ekv30":       0x66d2f77fd62d6a40,
	"lane0/ekv30":           0x4f40d15d8b902544,
	"lane1/ekv30":           0x4f40d15d8b902544,
	"lane2/ekv30":           0x4f40d15d8b902544,
	"backward2/ecl8":        0x237cbdcf34dde037,
	"forward2/ecl8":         0x6e6a05705aba3d08,
	"combined3/ecl8":        0x6b04c03cbab938cd,
}

// iterationWaveformHashes pins the configurations the Newton-iteration fold
// (PR 15) touches and no row above covers: the incremental assembly engine
// and a default (non-strict) four-window run. Generated on the commit before
// the fold (PR 14, go1.24 linux/amd64), keyed "config/circuit". (The two
// gang4/ rows that stood here pinned the intra-point gang PR 23 removed; a
// CoreBudget no longer selects a load path, and
// TestCoreBudgetNeverChangesAWaveform holds budgeted runs to the rows of
// their unbudgeted twins.) PR 22 retired
// the nonlinear device bypass behind DeviceBypass and kept the linear-stamp
// template: the two linear rows (ladder400, grid16) are as they were, the two
// nonlinear ones were regenerated once — against the default run of the same
// circuit the new waveforms differ by 1.4e-13 (ring9) and 1.1e-3 (inv50) of
// the probe's range (the template sums linear stamps in another order; inv50
// takes 1608 points to the default's 1605).
var iterationWaveformHashes = map[string]uint64{
	"devbypass/ring9":     0x39918cdf98c2dc85,
	"devbypass/inv50":     0xcaa9f7474bf7fbf6,
	"devbypass/ladder400": 0x9fc36a7690893462,
	"devbypass/grid16":    0x3cc0f120b5ec0af6,
	"windows4/rect1k":     0x2baab5bf34976a41,
}

// stageWaveformHashes pins the stage shapes the pipeline-stage fold (PR 16)
// rewrites and no row above reaches: two and three backward points under the
// main point, Combined at width 2 (no backward point: the Forward stage) and
// at width 4 (a backward point under the forward point as well). Generated on
// the commit before the fold (PR 15, go1.24 linux/amd64), keyed
// "config/circuit".
var stageWaveformHashes = map[string]uint64{
	"backward3/grid16":    0xd725cf788e99e463,
	"backward4/grid16":    0x2d2e14726edb7e48,
	"combined2/grid16":    0xdff95f52852425c0,
	"combined4/grid16":    0x217d12a857ab9932,
	"backward3/grid24":    0xe541911f9be5e0db,
	"backward4/grid24":    0xf0014bf288e93344,
	"combined2/grid24":    0x41452080376195eb,
	"combined4/grid24":    0x52cebef7521f04d9,
	"backward3/grid32":    0x43ed1fe8eef43c46,
	"backward4/grid32":    0x2df358838fd468e0,
	"combined2/grid32":    0x061ffaa758c40b9a,
	"combined4/grid32":    0x3477ff0973049e55,
	"backward3/ladder400": 0xc3b280425c5d9c3b,
	"backward4/ladder400": 0xe285ed9afb256d5e,
	"combined2/ladder400": 0x0f4f2c2bf7eced65,
	"combined4/ladder400": 0xc7671da420891753,
	"backward3/rlctree8":  0xea51ffd7e322feed,
	"backward4/rlctree8":  0x162c7c89aa9c1124,
	"combined2/rlctree8":  0x612abf753537de71,
	"combined4/rlctree8":  0x17282bdfabb0137b,
	"backward3/rect1k":    0xc8151cb129233896,
	"backward4/rect1k":    0xa58e9d4dcc2a2bff,
	"combined2/rect1k":    0xedd7b7706c6701d1,
	"combined4/rect1k":    0x2390c08eecceb59f,
	"backward3/amp10M":    0x236aab07dd8eb578,
	"backward4/amp10M":    0x84a6399ea608bbd1,
	"combined2/amp10M":    0xb224ceb97a37fafc,
	"combined4/amp10M":    0xd0ecc8487053f868,
	"backward3/ring9":     0x57e936305700c411,
	"backward4/ring9":     0x4affb2878d8caeda,
	"combined2/ring9":     0xe976cdaf5f72b007,
	"combined4/ring9":     0x6355a3a4572bb747,
	"backward3/inv50":     0x285809008e1b26f7,
	"backward4/inv50":     0x83a72181234933e5,
	"combined2/inv50":     0x0ee790e8aeb5b0a5,
	"combined4/inv50":     0x47e36df28a940447,
	"backward3/nand5":     0x3283fb71c6acd320,
	"backward4/nand5":     0x1b8d776c4e824c31,
	"combined2/nand5":     0x147d28f276c455a6,
	"combined4/nand5":     0x300375b5d001c72c,
	"backward3/ekv30":     0x44ca4e66d7d6b27c,
	"backward4/ekv30":     0xb08cfc634a435875,
	"combined2/ekv30":     0x50c90d42e0c9ed5b,
	"combined4/ekv30":     0xde877eb319b123cb,
	"backward3/ecl8":      0xf1511440146b9e5e,
	"backward4/ecl8":      0xbb95662a944efde3,
	"combined2/ecl8":      0x6e6a05705aba3d08,
	"combined4/ecl8":      0x8418263a67a2f787,
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
			res, err := RunTransient(sys, TranOptions{TStop: b.TStop})
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
		name  string
		opts  TranOptions
		table map[string]uint64
	}{
		{"backward2", TranOptions{Scheme: Backward, Threads: 2}, engineWaveformHashes},
		{"forward2", TranOptions{Scheme: Forward, Threads: 2}, engineWaveformHashes},
		{"combined3", TranOptions{Scheme: Combined, Threads: 3}, engineWaveformHashes},
		{"backward3", TranOptions{Scheme: Backward, Threads: 3}, stageWaveformHashes},
		{"backward4", TranOptions{Scheme: Backward, Threads: 4}, stageWaveformHashes},
		{"combined2", TranOptions{Scheme: Combined, Threads: 2}, stageWaveformHashes},
		{"combined4", TranOptions{Scheme: Combined, Threads: 4}, stageWaveformHashes},
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
				res, err := RunTransient(sys, opts)
				if err != nil {
					t.Fatal(err)
				}
				checkPinned(t, cfg.table, cfg.name+"/"+b.Name, res)
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
				res, err := RunTransient(sys, TranOptions{
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
			res, err := RunTransient(sys, opts)
			if err != nil {
				t.Fatal(err)
			}
			checkPinned(t, iterationWaveformHashes, key, res)
		})
	}
	for _, b := range circuits.Suite() {
		switch b.Name {
		case "ring9", "inv50", "ladder400", "grid16":
			run("devbypass/"+b.Name, b, TranOptions{DeviceBypass: true})
		}
		if b.Name == "rect1k" {
			run("windows4/"+b.Name, b, TranOptions{Windows: 4})
		}
	}
}
