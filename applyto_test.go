package wavepipe_test

import (
	"context"
	"strings"
	"testing"

	"wavepipe"
)

const applyToDeck = `precedence test deck
V1 in 0 DC 1
R1 in out 1k
C1 out 0 1n
.tran 0.1u 30u 0 0.5u uic
.options reltol=5e-4 abstol=2e-9
.ic v(out)=0.25
.nodeset v(in)=0.9
.end
`

func parseApplyToDeck(t *testing.T) *wavepipe.Deck {
	t.Helper()
	d, err := wavepipe.ParseDeck(applyToDeck)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestApplyToDeckDefaults: with zero-valued options every field comes from
// the deck's cards.
func TestApplyToDeckDefaults(t *testing.T) {
	d := parseApplyToDeck(t)
	got := d.ApplyTo(wavepipe.TranOptions{})
	if got.TStop != d.Tran.TStop || got.TStop < 29e-6 {
		t.Errorf("TStop = %g, want 30u from .TRAN", got.TStop)
	}
	if !got.UIC {
		t.Error("UIC not taken from .TRAN")
	}
	if got.MaxStep != d.Tran.TMax || got.MaxStep < 0.4e-6 {
		t.Errorf("MaxStep = %g, want the .TRAN tmax", got.MaxStep)
	}
	if got.RelTol != 5e-4 || got.AbsTol != 2e-9 {
		t.Errorf("tolerances = %g/%g, want .OPTIONS values", got.RelTol, got.AbsTol)
	}
	if got.IC["out"] != 0.25 {
		t.Errorf("IC = %v, want the .IC card", got.IC)
	}
	if got.NodeSet["in"] != 0.9 {
		t.Errorf("NodeSet = %v, want the .NODESET card", got.NodeSet)
	}
}

// TestApplyToExplicitWins: explicitly set TranOptions fields override every
// deck card.
func TestApplyToExplicitWins(t *testing.T) {
	d := parseApplyToDeck(t)
	in := wavepipe.TranOptions{
		TStop:   1e-6,
		MaxStep: 1e-7,
		RelTol:  1e-2,
		AbsTol:  1e-5,
		IC:      map[string]float64{"out": 0.5},
		NodeSet: map[string]float64{"in": 0.1},
	}
	got := d.ApplyTo(in)
	if got.TStop != 1e-6 || got.MaxStep != 1e-7 {
		t.Errorf("explicit TStop/MaxStep overridden: %g/%g", got.TStop, got.MaxStep)
	}
	if got.RelTol != 1e-2 || got.AbsTol != 1e-5 {
		t.Errorf("explicit tolerances overridden: %g/%g", got.RelTol, got.AbsTol)
	}
	if got.IC["out"] != 0.5 || len(got.IC) != 1 {
		t.Errorf("explicit IC overridden: %v", got.IC)
	}
	if got.NodeSet["in"] != 0.1 {
		t.Errorf("explicit NodeSet overridden: %v", got.NodeSet)
	}
	// UIC is an OR, not an override: the deck's flag persists.
	if !got.UIC {
		t.Error("deck UIC dropped")
	}
}

// TestApplyToUICFromOptions: the flag also propagates the other way.
func TestApplyToUICFromOptions(t *testing.T) {
	d, err := wavepipe.ParseDeck("uic deck\nV1 in 0 DC 1\nR1 in 0 1k\n.tran 1u 10u\n.end\n")
	if err != nil {
		t.Fatal(err)
	}
	if got := d.ApplyTo(wavepipe.TranOptions{UIC: true}); !got.UIC {
		t.Error("explicit UIC lost")
	}
}

// TestApplyToNoTranNoTStop: a deck without .TRAN and options without TStop
// is an error, not a zero-length run. ApplyTo itself only merges — the
// rejection comes from the single validation path when the run starts.
func TestApplyToNoTranNoTStop(t *testing.T) {
	d, err := wavepipe.ParseDeck("no tran\nV1 in 0 DC 1\nR1 in 0 1k\n.end\n")
	if err != nil {
		t.Fatal(err)
	}
	if merged := d.ApplyTo(wavepipe.TranOptions{}); merged.TStop != 0 {
		t.Fatalf("TStop = %g, want 0 (deck has no .TRAN)", merged.TStop)
	}
	if _, rerr := wavepipe.RunDeckCtx(context.Background(), d, wavepipe.TranOptions{}); rerr == nil {
		t.Fatal("expected an error for missing .TRAN and TStop")
	} else if !strings.Contains(rerr.Error(), ".TRAN") {
		t.Fatalf("unhelpful error: %v", rerr)
	}
	// But an explicit TStop rescues it.
	if got := d.ApplyTo(wavepipe.TranOptions{TStop: 1e-6}); got.TStop != 1e-6 {
		t.Fatalf("TStop = %g", got.TStop)
	}
}

// TestApplyToDoesNotMutateDeck: merging twice from the same deck gives the
// same answer (the deck is read-only to ApplyTo).
func TestApplyToDoesNotMutateDeck(t *testing.T) {
	d := parseApplyToDeck(t)
	a := d.ApplyTo(wavepipe.TranOptions{})
	b := d.ApplyTo(wavepipe.TranOptions{})
	if a.TStop != b.TStop || a.MaxStep != b.MaxStep || a.RelTol != b.RelTol {
		t.Fatalf("repeated ApplyTo diverged: %+v vs %+v", a, b)
	}
}
