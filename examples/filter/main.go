// Filter characterization across all three analyses: an RLC band-pass is
// swept in frequency (AC), stepped in bias (DC sweep of the source value),
// and driven in time (WavePipe transient), with the resonant frequency
// cross-checked between the AC peak and the transient ring-down, and the
// distortion of a diode-loaded variant quantified with Fourier analysis.
package main

import (
	"context"
	"fmt"
	"log"
	"math"

	"wavepipe"
)

const deck = `parametrized RLC band-pass
.param l=10u c=2.533n rq=50
V1 in 0 DC 0 AC 1 SIN(0 1 1meg)
RS in n1 {rq}
L1 n1 out {l}
C1 out 0 {c}
RL out 0 10k
.ac dec 40 100k 10meg
.tran 10n 20u
.end
`

func main() {
	d, err := wavepipe.ParseDeck(deck)
	if err != nil {
		log.Fatal(err)
	}

	// --- AC: find the resonance from the Bode magnitude. ---
	acRes, err := wavepipe.RunDeckAC(d, wavepipe.ACOptions{Record: []string{"out"}})
	if err != nil {
		log.Fatal(err)
	}
	db, _ := acRes.MagDB("out")
	peakF, peakDB := 0.0, math.Inf(-1)
	for k, f := range acRes.Freqs {
		if db[k] > peakDB {
			peakDB, peakF = db[k], f
		}
	}
	f0 := 1 / (2 * math.Pi * math.Sqrt(10e-6*2.533e-9))
	fmt.Printf("AC:   peak %.2f dB at %.3g Hz (theory f0 = %.3g Hz)\n", peakDB, peakF, f0)

	// --- Transient: drive at the resonant frequency with WavePipe and
	// measure the steady-state output. ---
	ctx := context.Background()
	tr, err := wavepipe.RunDeckCtx(ctx, d, wavepipe.TranOptions{
		Scheme: wavepipe.Backward,
		Record: []string{"in", "out"},
	})
	if err != nil {
		log.Fatal(err)
	}
	fMeas, err := tr.W.Frequency("out", 10e-6)
	if err != nil {
		log.Fatal(err)
	}
	rms, _ := tr.W.RMS("out", 15e-6, 20e-6)
	fmt.Printf("TRAN: output frequency %.3g Hz, steady RMS %.3f V (%d points in %d stages)\n",
		fMeas, rms, tr.Stats.Points, tr.Stats.Stages)

	// --- Fourier: the linear filter passes a clean tone... ---
	four, err := tr.W.FourierAnalyze("out", 1e6, 7)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("FOUR: fundamental %.3f V, THD %.4f%%\n", four.Magnitude[0], 100*four.THD)

	// --- ...and a diode across the load does not. ---
	dist := `diode-loaded band-pass
V1 in 0 SIN(0 1 1meg)
RS in n1 50
L1 n1 out 10u
C1 out 0 2.533n
RL out 0 10k
.model dl d(is=1e-12 n=1.4)
D1 out 0 dl
.tran 10n 20u
.end
`
	d2, err := wavepipe.ParseDeck(dist)
	if err != nil {
		log.Fatal(err)
	}
	tr2, err := wavepipe.RunDeckCtx(ctx, d2, wavepipe.TranOptions{
		Scheme: wavepipe.Backward, Record: []string{"out"},
	})
	if err != nil {
		log.Fatal(err)
	}
	four2, err := tr2.W.FourierAnalyze("out", 1e6, 7)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("FOUR: diode-loaded THD %.2f%% (clipping visible in harmonics 2..4: %.3f %.3f %.3f V)\n",
		100*four2.THD, four2.Magnitude[1], four2.Magnitude[2], four2.Magnitude[3])
}
