// Full-wave bridge rectifier: a nonlinear analog workload parsed from an
// embedded SPICE deck, simulated with forward pipelining, with the output
// ripple measured and the waveform exported as CSV for plotting.
package main

import (
	"context"
	"fmt"
	"log"
	"math"
	"os"

	"wavepipe"
)

const deck = `full-wave bridge rectifier with RC filter
.model dbridge d(is=1e-12 n=1.05 tt=10n cj0=10p vj=0.8 m=0.45)
Vac acp acn SIN(0 10 1k)
Rref acn 0 1meg
D1 acp outp dbridge
D2 acn outp dbridge
D3 outn acp dbridge
D4 outn acn dbridge
Cf outp outn 2u
RL outp outn 2k
Rgnd outn 0 10
.tran 10u 6m
.end
`

func main() {
	d, err := wavepipe.ParseDeck(deck)
	if err != nil {
		log.Fatal(err)
	}
	res, err := wavepipe.RunDeckCtx(context.Background(), d, wavepipe.TranOptions{
		Scheme: wavepipe.Forward,
		Record: []string{"outp", "outn", "acp"},
	})
	if err != nil {
		log.Fatal(err)
	}

	// Ripple of the differential output over the last two input cycles.
	outp, _ := res.W.Signal("outp")
	outn, _ := res.W.Signal("outn")
	lo, hi := math.Inf(1), math.Inf(-1)
	for i := range outp {
		if res.W.Times[i] < 4e-3 {
			continue // skip the charge-up transient
		}
		v := outp[i] - outn[i]
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
	}
	fmt.Printf("bridge rectifier, 1 kHz / 10 V input\n")
	fmt.Printf("steady-state output: %.3f V mean, %.1f mV peak-to-peak ripple\n",
		(hi+lo)/2, (hi-lo)*1e3)
	fmt.Printf("simulated %d points in %d pipeline stages (%d speculative discards)\n",
		res.Stats.Points, res.Stats.Stages, res.Stats.Discarded)

	f, err := os.Create("rectifier.csv")
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	if err := res.W.WriteCSV(f); err != nil {
		log.Fatal(err)
	}
	fmt.Println("waveforms written to rectifier.csv")
}
