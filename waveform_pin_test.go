package wavepipe

import (
	"hash/fnv"
	"math"
	"runtime"
	"testing"

	"wavepipe/internal/circuits"
)

// suiteWaveformHashes pins the Serial waveform of every suite circuit at its
// full horizon, all node voltages recorded: FNV-1a over the IEEE bits of
// every time, every sample and the final solution. The table was generated
// on the commit before exact factorization reuse and the compiled refactor
// kernel went in (PR 12, go1.24 linux/amd64); both are claimed bit-identical,
// so any change that moves one of these moved a waveform. A deliberate
// numerical change regenerates the table from the failure messages.
var suiteWaveformHashes = map[string]uint64{
	"grid16":    0x73a00fde9988dd60,
	"grid24":    0x923558fe514328d4,
	"grid32":    0xbe78136b6b67edd1,
	"ladder400": 0xb205b5c70be7092c,
	"rlctree8":  0xdaf3e0898e25a539,
	"rect1k":    0x25d216e8df7be17c,
	"amp10M":    0xaa0ac22efaca99ea,
	"ring9":     0x99ff3b004ea3cb04,
	"inv50":     0x05af7cf0894e21a9,
	"nand5":     0x687965018eefb983,
	"ekv30":     0x4f40d15d8b902544,
	"ecl8":      0xe1502373c2e813ca,
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

func TestSuiteWaveformHashesPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("full-horizon suite run")
	}
	if runtime.GOARCH != "amd64" {
		// Other back ends fuse multiply-adds, which legitimately moves the
		// last bit; the table is an amd64 record.
		t.Skipf("hash table recorded on amd64, running on %s", runtime.GOARCH)
	}
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
			if got, want := waveformHash(res), suiteWaveformHashes[b.Name]; got != want {
				t.Errorf("%q: 0x%016x, // pinned 0x%016x; %d points", b.Name, got, want, res.Stats.Points)
			}
		})
	}
}
