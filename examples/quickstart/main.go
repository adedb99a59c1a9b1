// Quickstart: parse a SPICE deck, simulate it with the backward WavePipe
// scheme, and print a few output samples plus the run statistics.
package main

import (
	"context"
	"fmt"
	"log"

	"wavepipe"
)

const deck = `low-pass filter quickstart
V1 in 0 SIN(0 1 10k)
R1 in out 1k
C1 out 0 10n
.tran 1u 300u
.end
`

func main() {
	d, err := wavepipe.ParseDeck(deck)
	if err != nil {
		log.Fatal(err)
	}

	// Serial reference first, then backward WavePipe: two points a stage.
	ctx := context.Background()
	serial, err := wavepipe.RunDeckCtx(ctx, d, wavepipe.TranOptions{Scheme: wavepipe.Serial})
	if err != nil {
		log.Fatal(err)
	}
	pipelined, err := wavepipe.RunDeckCtx(ctx, d, wavepipe.TranOptions{Scheme: wavepipe.Backward})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("t (µs)    v(out) serial   v(out) wavepipe")
	for _, us := range []float64{50, 100, 150, 200, 250} {
		vs, _ := serial.W.At("out", us*1e-6)
		vp, _ := pipelined.W.At("out", us*1e-6)
		fmt.Printf("%6.0f    %13.6f   %15.6f\n", us, vs, vp)
	}

	dev, err := wavepipe.Compare(pipelined.W, serial.W, "out")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nmax deviation from serial: %.3g V (%.4f%% of range)\n",
		dev.Max, 100*dev.RelMax())
	fmt.Printf("serial:   %d points in %d sequential solves\n",
		serial.Stats.Points, serial.Stats.Stages)
	fmt.Printf("wavepipe: %d points in %d pipeline stages (%d speculative points discarded)\n",
		pipelined.Stats.Points, pipelined.Stats.Stages, pipelined.Stats.Discarded)
}
