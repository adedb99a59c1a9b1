package wavepipe

import (
	"context"
	"math"
	"math/cmplx"
	"testing"
)

func TestRunACThroughFacade(t *testing.T) {
	c := NewCircuit("lp")
	in := c.Node("in")
	out := c.Node("out")
	AddVSourceAC(c, "V1", in, Ground, DC(0), 1, 0)
	AddResistor(c, "R1", in, out, 1e3)
	AddCapacitor(c, "C1", out, Ground, 1e-9)
	sys, err := c.Build()
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunAC(sys, ACOptions{FStart: 1e3, FStop: 1e7, Record: []string{"out"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Names) != 1 || res.Names[0] != "out" {
		t.Fatalf("names = %v", res.Names)
	}
	sig, err := res.Signal("out")
	if err != nil {
		t.Fatal(err)
	}
	for k, f := range res.Freqs {
		want := 1 / complex(1, 2*math.Pi*f*1e3*1e-9)
		if cmplx.Abs(sig[k]-want) > 1e-9 {
			t.Fatalf("f=%g: %v vs %v", f, sig[k], want)
		}
	}
	if _, err := RunAC(sys, ACOptions{Sweep: "weird", FStart: 1, FStop: 2}); err == nil {
		t.Fatal("bad sweep must fail")
	}
	if _, err := RunAC(sys, ACOptions{FStart: 1, FStop: 2, Record: []string{"zzz"}}); err == nil {
		t.Fatal("bad record must fail")
	}
}

func TestRunDCSweepThroughFacade(t *testing.T) {
	c := NewCircuit("vtc")
	vdd := c.Node("vdd")
	in := c.Node("in")
	out := c.Node("out")
	AddVSource(c, "VDD", vdd, Ground, DC(1.8))
	vin := AddVSourceAC(c, "VIN", in, Ground, DC(0), 0, 0)
	AddResistor(c, "RL", vdd, out, 20e3)
	AddMOSFET(c, "M1", out, in, Ground, Ground, DefaultMOSModel(NMOS), 4e-6, 1e-6)
	sys, err := c.Build()
	if err != nil {
		t.Fatal(err)
	}
	w, err := RunDCSweep(sys, vin, 0, 1.8, 0.2, []string{"out"})
	if err != nil {
		t.Fatal(err)
	}
	hi, _ := w.At("out", 0)
	lo, _ := w.At("out", 1.8)
	if hi < 1.7 || lo > 0.3 {
		t.Fatalf("VTC rails: %g, %g", hi, lo)
	}
	if _, err := RunDCSweep(sys, vin, 0, 1, 0.1, []string{"zzz"}); err == nil {
		t.Fatal("bad record must fail")
	}
}

func TestDeckDrivenACAndDC(t *testing.T) {
	deck := `deck analyses
V1 in 0 DC 0 AC 1
R1 in out 1k
C1 out 0 159.155n
.ac dec 5 10 100k
.dc V1 0 2 0.5
.end
`
	d, err := ParseDeck(deck)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunDeckAC(d, ACOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// fc = 1/(2πRC) ≈ 1 kHz with that capacitor.
	db, err := res.MagDB("out")
	if err != nil {
		t.Fatal(err)
	}
	at1k := -100.0
	for k, f := range res.Freqs {
		if math.Abs(f-1000) < 1 {
			at1k = db[k]
		}
	}
	if math.Abs(at1k-(-3.01)) > 0.05 {
		t.Fatalf("deck AC at fc: %g dB", at1k)
	}

	sweep, err := RunDeckDC(d, []string{"out"})
	if err != nil {
		t.Fatal(err)
	}
	if sweep.Len() != 5 {
		t.Fatalf("sweep points = %d", sweep.Len())
	}
	v, _ := sweep.At("out", 2)
	if math.Abs(v-2) > 1e-9 {
		t.Fatalf("DC sweep endpoint = %g", v)
	}

	// Error paths.
	d2, _ := ParseDeck("no cards\nR1 a 0 1k\nV1 a 0 1\n")
	if _, err := RunDeckAC(d2, ACOptions{}); err == nil {
		t.Fatal("missing .AC must fail")
	}
	if _, err := RunDeckDC(d2, nil); err == nil {
		t.Fatal("missing .DC must fail")
	}
}

// A BJT differential pair built through the facade: the differential gain
// from AC analysis must be close to gm·Rc/2 per side.
func TestBJTDiffPairAC(t *testing.T) {
	c := NewCircuit("diffpair")
	vcc := c.Node("vcc")
	vee := c.Node("vee")
	inp := c.Node("inp")
	outp := c.Node("outp")
	outn := c.Node("outn")
	tail := c.Node("tail")
	AddVSource(c, "VCC", vcc, Ground, DC(12))
	AddVSource(c, "VEE", vee, Ground, DC(-12))
	AddVSourceAC(c, "VINP", inp, Ground, DC(0), 1, 0)
	AddResistor(c, "RC1", vcc, outp, 10e3)
	AddResistor(c, "RC2", vcc, outn, 10e3)
	AddBJT(c, "Q1", outp, inp, tail, DefaultBJTModel(NPN), 1)
	AddBJT(c, "Q2", outn, Ground, tail, DefaultBJTModel(NPN), 1)
	AddResistor(c, "REE", tail, vee, 11.3e3) // ≈1 mA tail
	sys, err := c.Build()
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunAC(sys, ACOptions{Sweep: "lin", Points: 1, FStart: 1e3, FStop: 1e3, Record: []string{"outp", "outn"}})
	if err != nil {
		t.Fatal(err)
	}
	sp, _ := res.Signal("outp")
	sn, _ := res.Signal("outn")
	// Tail ≈ 1 mA → each side 0.5 mA → gm ≈ 19.3 mS; single-ended gain per
	// output ≈ gm·Rc/2 ≈ 97, antiphase outputs.
	gm := 0.5e-3 / 0.025852
	want := gm * 10e3 / 2
	gainP := cmplx.Abs(sp[0])
	if math.Abs(gainP-want) > 0.15*want {
		t.Fatalf("|A(outp)| = %g, want ≈%g", gainP, want)
	}
	// Differential symmetry: outputs in antiphase with equal magnitude.
	if cmplx.Abs(sp[0]+sn[0]) > 0.05*gainP {
		t.Fatalf("outputs not antiphase: %v vs %v", sp[0], sn[0])
	}
}

func TestRunOP(t *testing.T) {
	c := NewCircuit("op")
	in := c.Node("in")
	mid := c.Node("mid")
	AddVSource(c, "V1", in, Ground, DC(10))
	AddResistor(c, "R1", in, mid, 1e3)
	AddResistor(c, "R2", mid, Ground, 4e3)
	sys, err := c.Build()
	if err != nil {
		t.Fatal(err)
	}
	op, err := RunOP(sys)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(op["mid"]-8) > 1e-9 || math.Abs(op["in"]-10) > 1e-9 {
		t.Fatalf("op = %v", op)
	}
	// Unsolvable circuit surfaces the error.
	c2 := NewCircuit("bad")
	a := c2.Node("a")
	AddVSource(c2, "V1", a, Ground, DC(1))
	AddVSource(c2, "V2", a, Ground, DC(2))
	sys2, err := c2.Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunOP(sys2); err == nil {
		t.Fatal("conflicting sources must fail")
	}
}

func TestRunSens(t *testing.T) {
	c := NewCircuit("sens")
	in := c.Node("in")
	mid := c.Node("mid")
	AddVSource(c, "V1", in, Ground, DC(10))
	AddResistor(c, "R1", in, mid, 1e3)
	AddResistor(c, "R2", mid, Ground, 1e3)
	sys, err := c.Build()
	if err != nil {
		t.Fatal(err)
	}
	sens, err := RunSens(sys, "mid")
	if err != nil {
		t.Fatal(err)
	}
	// v(mid) = V·R2/(R1+R2): dV/dV1 = 0.5; normalized dV/d(lnR2) = 2.5,
	// dV/d(lnR1) = −2.5.
	for _, s := range sens {
		switch s.Device + "." + s.Param {
		case "V1.dc":
			if math.Abs(s.DVDp-0.5) > 1e-9 {
				t.Fatalf("V1 sensitivity = %g", s.DVDp)
			}
		case "R1.r":
			if math.Abs(s.Normalized-(-2.5)) > 1e-6 {
				t.Fatalf("R1 normalized = %g", s.Normalized)
			}
		case "R2.r":
			if math.Abs(s.Normalized-2.5) > 1e-6 {
				t.Fatalf("R2 normalized = %g", s.Normalized)
			}
		}
	}
	if _, err := RunSens(sys, "zzz"); err == nil {
		t.Fatal("unknown node must fail")
	}
}

// .NODESET seeds the operating point: the cross-coupled latch resolves to
// the state the seed suggests, while the unseeded OP finds the metastable
// midpoint.
func TestNodeSetSteersLatchOP(t *testing.T) {
	deck := `latch with nodeset
.model nch nmos(vto=0.5 kp=120u lambda=0.06)
.model pch pmos(vto=-0.55 kp=50u lambda=0.06)
VDD vdd 0 1.8
MPA q qb vdd vdd pch w=2u l=0.5u
MNA q qb 0 0 nch w=1u l=0.5u
MPB qb q vdd vdd pch w=2u l=0.5u
MNB qb q 0 0 nch w=1u l=0.5u
CQ q 0 5f
CQB qb 0 5f
.nodeset v(q)=1.8 v(qb)=0
.tran 0.1n 5n
.end
`
	d, err := ParseDeck(deck)
	if err != nil {
		t.Fatal(err)
	}
	if d.NodeSets["q"] != 1.8 || d.NodeSets["qb"] != 0 {
		t.Fatalf("nodesets = %v", d.NodeSets)
	}
	res, err := RunDeckCtx(context.Background(), d, TranOptions{Record: []string{"q", "qb"}})
	if err != nil {
		t.Fatal(err)
	}
	q, _ := res.W.At("q", 0)
	qb, _ := res.W.At("qb", 0)
	if q < 1.5 || qb > 0.3 {
		t.Fatalf("seeded latch OP: q=%g qb=%g, want resolved high/low", q, qb)
	}
	// Unknown node in an explicit NodeSet errors.
	sys, _ := d.Circuit.Build()
	if _, err := RunTransientCtx(context.Background(), sys, TranOptions{TStop: 1e-9, NodeSet: map[string]float64{"zz": 1}}); err == nil {
		t.Fatal("bad nodeset must fail")
	}
}

// A deck's .NODESET steers the operating point an .AC analysis linearizes
// at, as it does the transient one: the same latch, driven through a small
// coupling capacitor, resolves high/low rather than to its metastable point.
func TestNodeSetSteersLatchACOP(t *testing.T) {
	d, err := ParseDeck(`latch with nodeset, ac
.model nch nmos(vto=0.5 kp=120u lambda=0.06)
.model pch pmos(vto=-0.55 kp=50u lambda=0.06)
VDD vdd 0 1.8
MPA q qb vdd vdd pch w=2u l=0.5u
MNA q qb 0 0 nch w=1u l=0.5u
MPB qb q vdd vdd pch w=2u l=0.5u
MNB qb q 0 0 nch w=1u l=0.5u
CQ q 0 5f
CQB qb 0 5f
VIN inj 0 0 AC 1
CIN inj q 1f
.nodeset v(q)=1.8 v(qb)=0
.ac dec 2 1k 1meg
.end
`)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunDeckAC(d, ACOptions{})
	if err != nil {
		t.Fatal(err)
	}
	q, qb := res.OP[res.Index[res.SignalIndex("q")]], res.OP[res.Index[res.SignalIndex("qb")]]
	if q < 1.5 || qb > 0.3 {
		t.Fatalf("seeded latch AC OP: q=%g qb=%g, want resolved high/low", q, qb)
	}
}
