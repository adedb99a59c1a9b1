package netlist

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"wavepipe/internal/circuit"
	"wavepipe/internal/dcop"
	"wavepipe/internal/device"
	"wavepipe/internal/transient"
	"wavepipe/internal/waveform"
)

func TestParseValue(t *testing.T) {
	cases := []struct {
		in   string
		want float64
	}{
		{"10", 10}, {"-3.5", -3.5}, {"1e-9", 1e-9}, {"2.5e3", 2500},
		{"10k", 10e3}, {"4.7u", 4.7e-6}, {"100n", 100e-9}, {"2p", 2e-12},
		{"3f", 3e-15}, {"1meg", 1e6}, {"2g", 2e9}, {"1t", 1e12},
		{"5m", 5e-3}, {"10kohm", 10e3}, {"5pF", 5e-12}, {"3V", 3},
		{"1MEG", 1e6}, {"2.2K", 2200},
	}
	for _, c := range cases {
		got, err := ParseValue(c.in)
		if err != nil {
			t.Fatalf("ParseValue(%q): %v", c.in, err)
		}
		if math.Abs(got-c.want) > 1e-12*math.Abs(c.want) {
			t.Fatalf("ParseValue(%q) = %g, want %g", c.in, got, c.want)
		}
	}
	for _, bad := range []string{"", "abc", "--5"} {
		if _, err := ParseValue(bad); err == nil {
			t.Fatalf("ParseValue(%q) should fail", bad)
		}
	}
}

func TestFormatValueRoundTrip(t *testing.T) {
	for _, v := range []float64{0, 1, -2.5, 4.7e-6, 1e-13, 3.3e3, 2.2e6, 5e9, 7e12, 1e-15} {
		got, err := ParseValue(FormatValue(v))
		if err != nil {
			t.Fatalf("FormatValue(%g) = %q unparseable: %v", v, FormatValue(v), err)
		}
		if math.Abs(got-v) > 1e-6*math.Abs(v) {
			t.Fatalf("round trip %g -> %q -> %g", v, FormatValue(v), got)
		}
	}
}

const dividerDeck = `resistive divider test
V1 in 0 DC 10
R1 in mid 1k
R2 mid 0 1k
.tran 1u 1m
.end
`

func TestParseDivider(t *testing.T) {
	d, err := Parse(dividerDeck)
	if err != nil {
		t.Fatal(err)
	}
	if d.Title != "resistive divider test" {
		t.Fatalf("title = %q", d.Title)
	}
	if got := len(d.Circuit.Devices()); got != 3 {
		t.Fatalf("devices = %d", got)
	}
	if d.Tran == nil || d.Tran.TStop != 1e-3 || d.Tran.TStep != 1e-6 {
		t.Fatalf("tran = %+v", d.Tran)
	}
	sys, err := d.Circuit.Build()
	if err != nil {
		t.Fatal(err)
	}
	res, err := transient.Run(sys, transient.Options{TStop: d.Tran.TStop})
	if err != nil {
		t.Fatal(err)
	}
	v, err := res.W.At("mid", 0.5e-3)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(v-5) > 1e-6 {
		t.Fatalf("v(mid) = %g, want 5", v)
	}
}

func TestParseComments_Continuations_Case(t *testing.T) {
	deck := `* commented title
* a full comment line
V1 IN 0 PULSE(0 5
+ 1u 1u 1u
+ 10u 100u) ; trailing comment
r1 in out 2K $ another comment
C1 OUT 0 1u
.TRAN 1u 50u UIC
.IC v(out)=2.5
.OPTIONS reltol=1e-4 gmin=1e-13
.END
`
	d, err := Parse(deck)
	if err != nil {
		t.Fatal(err)
	}
	if d.Title != "commented title" {
		t.Fatalf("title = %q", d.Title)
	}
	if len(d.Circuit.Devices()) != 3 {
		t.Fatalf("devices = %d", len(d.Circuit.Devices()))
	}
	v1, ok := d.Circuit.Devices()[0].(*device.VSource)
	if !ok {
		t.Fatalf("V1 type %T", d.Circuit.Devices()[0])
	}
	p, ok := v1.W.(device.Pulse)
	if !ok || p.V2 != 5 || math.Abs(p.Delay-1e-6) > 1e-18 ||
		math.Abs(p.Width-10e-6) > 1e-17 || math.Abs(p.Period-100e-6) > 1e-16 {
		t.Fatalf("pulse = %+v", p)
	}
	if !d.Tran.UIC {
		t.Fatal("UIC flag lost")
	}
	if d.ICs["out"] != 2.5 {
		t.Fatalf("ICs = %v", d.ICs)
	}
	if d.Options["reltol"] != 1e-4 || d.Options["gmin"] != 1e-13 {
		t.Fatalf("options = %v", d.Options)
	}
	// Case-insensitive node identity: IN and in are the same node.
	if d.Circuit.NumNodes() != 2 {
		t.Fatalf("nodes = %d, want 2 (in, out)", d.Circuit.NumNodes())
	}
}

func TestParseAllWaveforms(t *testing.T) {
	deck := `waveforms
V1 a 0 5
V2 b 0 DC 3
V3 c 0 SIN(1 2 1k 1u 100)
V4 d 0 PWL(0 0 1u 5 2u 0)
V5 e 0 EXP(0 1 0 1u 5u 1u)
I1 f 0 PULSE(0 1m 0 1n 1n 5n 10n)
R1 a b 1k
R2 c d 1k
R3 e f 1k
.end
`
	d, err := Parse(deck)
	if err != nil {
		t.Fatal(err)
	}
	devs := d.Circuit.Devices()
	if _, ok := devs[0].(*device.VSource).W.(device.DC); !ok {
		t.Fatalf("bare value should parse as DC: %T", devs[0].(*device.VSource).W)
	}
	if _, ok := devs[2].(*device.VSource).W.(device.Sin); !ok {
		t.Fatal("SIN")
	}
	pwl, ok := devs[3].(*device.VSource).W.(device.PWL)
	if !ok || len(pwl.Times) != 3 {
		t.Fatalf("PWL = %+v", pwl)
	}
	if _, ok := devs[4].(*device.VSource).W.(device.Exp); !ok {
		t.Fatal("EXP")
	}
	if _, ok := devs[5].(*device.ISource).W.(device.Pulse); !ok {
		t.Fatal("ISource PULSE")
	}
}

func TestParseModelsAndActives(t *testing.T) {
	deck := `actives
.model d1n4148 D (is=2.52n n=1.752 cj0=4p m=.4 tt=20n)
.model nch NMOS (vto=0.6 kp=120u gamma=0.3 lambda=0.02)
.model pch PMOS (vto=-0.65 kp=40u)
Vdd vdd 0 3.3
Vin in 0 SIN(1.5 0.5 1meg)
D1 in rect d1n4148 2
Rr rect 0 10k
MP1 out in vdd vdd pch w=4u l=0.5u
MN1 out in 0 0 nch w=2u l=0.5u
CL out 0 10f
.tran 10n 2u
.end
`
	d, err := Parse(deck)
	if err != nil {
		t.Fatal(err)
	}
	var dio *device.Diode
	var pm *device.MOSFET
	for _, dev := range d.Circuit.Devices() {
		switch el := dev.(type) {
		case *device.Diode:
			dio = el
		case *device.MOSFET:
			if el.Model.Type == device.PMOS {
				pm = el
			}
		}
	}
	if dio == nil || math.Abs(dio.Model.IS-2.52e-9) > 1e-18 || dio.Area != 2 {
		t.Fatalf("diode = %+v", dio)
	}
	if dio.Model.N != 1.752 || dio.Model.M != 0.4 {
		t.Fatalf("diode model = %+v", dio.Model)
	}
	if pm == nil || pm.Model.VTO != 0.65 || math.Abs(pm.Model.KP-40e-6) > 1e-12 || pm.W != 4e-6 {
		t.Fatalf("pmos = %+v", pm)
	}
	if _, err := d.Circuit.Build(); err != nil {
		t.Fatal(err)
	}
}

func TestSubcircuitExpansion(t *testing.T) {
	deck := `subckt test
.subckt divider top bot mid
R1 top mid 1k
R2 mid bot 1k
.ends
V1 in 0 DC 8
X1 in 0 a divider
X2 a 0 b divider
.end
`
	d, err := Parse(deck)
	if err != nil {
		t.Fatal(err)
	}
	// 1 source + 2×2 resistors.
	if got := len(d.Circuit.Devices()); got != 5 {
		t.Fatalf("devices = %d", got)
	}
	sys, err := d.Circuit.Build()
	if err != nil {
		t.Fatal(err)
	}
	res, err := transient.Run(sys, transient.Options{TStop: 1e-6})
	if err != nil {
		t.Fatal(err)
	}
	// a = 8·(500/1500) = 8/3... compute: X1 divides in..0 with mid=a loaded
	// by X2's 2k chain from a to 0: R_low = 1k || 2k = 2/3k; a = 8·(2/3)/(1+2/3) = 3.2.
	va, err := res.W.At("a", 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(va-3.2) > 1e-3 {
		t.Fatalf("v(a) = %g, want 3.2", va)
	}
	vb, err := res.W.At("b", 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(vb-1.6) > 1e-3 {
		t.Fatalf("v(b) = %g, want 1.6", vb)
	}
}

func TestNestedSubcircuits(t *testing.T) {
	deck := `nested
.subckt half a b
R1 a b 1k
.ends
.subckt full p q
X1 p m half
X2 m q half
.ends
V1 in 0 DC 2
Xtop in 0 full
.end
`
	d, err := Parse(deck)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(d.Circuit.Devices()); got != 3 {
		t.Fatalf("devices = %d", got)
	}
	sys, err := d.Circuit.Build()
	if err != nil {
		t.Fatal(err)
	}
	res, err := transient.Run(sys, transient.Options{TStop: 1e-6})
	if err != nil {
		t.Fatal(err)
	}
	v, err := res.W.At("xtop.m", 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(v-1) > 1e-6 {
		t.Fatalf("v(xtop.m) = %g, want 1", v)
	}
}

// TestSubcircuitExpansionCapped: ten instances a level over eight levels
// would expand to about 10^8 lines; the parser counts that before building
// anything and refuses the deck at once, naming the subcircuit. A
// subcircuit that instantiates itself is refused the same way.
func TestSubcircuitExpansionCapped(t *testing.T) {
	var b strings.Builder
	b.WriteString("bomb\n.subckt l0 a b\nR1 a b 1k\n.ends\n")
	for k := 1; k < 8; k++ {
		fmt.Fprintf(&b, ".subckt l%d a b\n", k)
		for i := 0; i < 10; i++ {
			fmt.Fprintf(&b, "X%d a b l%d\n", i, k-1)
		}
		b.WriteString(".ends\n")
	}
	b.WriteString("V1 in 0 DC 1\nXtop in 0 l7\n.end\n")
	bomb := b.String()

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	_, err := Parse(bomb)
	took := time.Since(start)
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), `"l7"`) {
		t.Fatalf("err = %v, want a refusal naming subcircuit l7", err)
	}
	if took > time.Second {
		t.Fatalf("refusal took %v", took)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 4<<20 {
		t.Fatalf("refusal allocated %d bytes", alloc)
	}

	self := "t\n.subckt s a b\nR1 a b 1k\nX1 a b s\nX2 a b s\n.ends\nXtop in 0 s\n.end\n"
	if _, err := Parse(self); err == nil || !strings.Contains(err.Error(), `"s"`) {
		t.Fatalf("self-instantiating subcircuit: err = %v", err)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"t\nR1 a 0\n.end",                                   // missing value
		"t\nR1 a 0 0\n.end",                                 // zero resistance
		"t\nQ1 a b c model\n.end",                           // unsupported element
		"t\nD1 a 0 nosuch\n.end",                            // unknown model
		"t\n.model m1 bjt(bf=100)\n.end",                    // unsupported model type
		"t\nX1 a b nosub\n.end",                             // unknown subckt
		"t\n.subckt s a\nR1 a 0 1\n.end",                    // unterminated subckt
		"t\n.ends\n.end",                                    // stray .ends
		"t\n.tran 1u\n.end",                                 // short .tran
		"t\n.ic out=5\n.end",                                // malformed .ic
		"t\n.badcard x\n.end",                               // unknown directive
		"t\n.subckt s a b\nR1 a b 1k\n.ends\nX1 in s\n.end", // port count
		"t\nV1 a 0 SIN(1 2 3 4 5 6 7)\n.end",                // too many SIN args
	}
	for _, c := range cases {
		if _, err := Parse(c); err == nil {
			t.Fatalf("expected error for deck %q", c)
		}
	}
}

// Property: Write then Parse reproduces a circuit that simulates to the
// same waveform.
func TestWriteParseRoundTrip(t *testing.T) {
	deck := `round trip
.model dd d(is=1e-14 n=1.2 tt=1n cj0=2p vj=0.8 m=0.45 fc=0.5)
.model nch nmos(vto=0.7 kp=110u gamma=0.4 phi=0.65 lambda=0.05)
V1 in 0 SIN(0 2 100k)
Vdd vdd 0 DC 3
R1 in a 220
D1 a out dd 1
C1 out 0 100n
R2 out 0 5k
M1 drain a 0 0 nch w=5u l=1u
R3 vdd drain 10k
L1 drain tail 1u
Rt tail 0 50
E1 amp 0 out 0 2
RE amp 0 1k
G1 0 gout a 0 1m
RG gout 0 2k
I2 0 a PULSE(0 1m 1u 100n 100n 2u 10u)
.ic v(out)=0.1
.options reltol=0.002
.tran 100n 30u
.end
`
	d1, err := Parse(deck)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := Write(&sb, d1); err != nil {
		t.Fatal(err)
	}
	d2, err := Parse(sb.String())
	if err != nil {
		t.Fatalf("reparse: %v\ndeck:\n%s", err, sb.String())
	}
	if len(d2.Circuit.Devices()) != len(d1.Circuit.Devices()) {
		t.Fatalf("device count %d -> %d", len(d1.Circuit.Devices()), len(d2.Circuit.Devices()))
	}
	if d2.Tran == nil || math.Abs(d2.Tran.TStop-d1.Tran.TStop) > 1e-12*d1.Tran.TStop {
		t.Fatalf("tran lost: %+v", d2.Tran)
	}
	if d2.ICs["out"] != 0.1 || d2.Options["reltol"] != 0.002 {
		t.Fatalf("ic/options lost: %v %v", d2.ICs, d2.Options)
	}
	run := func(d *Deck) *waveform.Set {
		sys, err := d.Circuit.Build()
		if err != nil {
			t.Fatal(err)
		}
		res, err := transient.Run(sys, transient.Options{TStop: d.Tran.TStop})
		if err != nil {
			t.Fatal(err)
		}
		return res.W
	}
	w1 := run(d1)
	w2 := run(d2)
	for _, node := range []string{"out", "drain", "amp"} {
		dev, err := waveform.Compare(w2, w1, node)
		if err != nil {
			t.Fatal(err)
		}
		if dev.RelMax() > 0.01 {
			t.Fatalf("node %s: round-trip deviation %g", node, dev.RelMax())
		}
	}
}

// Property: randomly generated RC/source circuits survive a Write/Parse
// round trip with identical simulated operating points.
func TestRandomCircuitRoundTripQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := circuit.New("random")
		nNodes := 3 + rng.Intn(6)
		nodes := make([]int, nNodes)
		for i := range nodes {
			nodes[i] = c.Node(fmt.Sprintf("n%d", i))
		}
		pick := func() int { return nodes[rng.Intn(nNodes)] }
		// A source guarantees a reference; resistors guarantee DC paths.
		c.Add(device.NewVSource("V0", nodes[0], circuit.Ground, device.DC(1+rng.Float64()*9)))
		for i, nd := range nodes {
			c.Add(device.NewResistor(fmt.Sprintf("Rg%d", i), nd, circuit.Ground,
				100+rng.Float64()*1e4))
		}
		extra := rng.Intn(8)
		for i := 0; i < extra; i++ {
			a, b := pick(), pick()
			if a == b {
				continue
			}
			switch rng.Intn(3) {
			case 0:
				c.Add(device.NewResistor(fmt.Sprintf("Rx%d", i), a, b, 10+rng.Float64()*1e5))
			case 1:
				c.Add(device.NewCapacitor(fmt.Sprintf("Cx%d", i), a, b, 1e-12+rng.Float64()*1e-9))
			default:
				c.Add(device.NewISource(fmt.Sprintf("Ix%d", i), a, b, device.DC(rng.NormFloat64()*1e-3)))
			}
		}
		d1 := &Deck{Title: "random", Circuit: c,
			ICs: map[string]float64{}, NodeSets: map[string]float64{}, Options: map[string]float64{}}
		var sb strings.Builder
		if err := Write(&sb, d1); err != nil {
			t.Logf("write: %v", err)
			return false
		}
		d2, err := Parse(sb.String())
		if err != nil {
			t.Logf("parse: %v\n%s", err, sb.String())
			return false
		}
		op := func(d *Deck) []float64 {
			sys, err := d.Circuit.Build()
			if err != nil {
				t.Logf("build: %v", err)
				return nil
			}
			ws := sys.NewWorkspace()
			x := make([]float64, sys.N)
			if _, err := dcop.Solve(ws, x, dcop.DefaultOptions()); err != nil {
				return nil
			}
			return x[:sys.NumNodes]
		}
		x1 := op(d1)
		x2 := op(d2)
		if x1 == nil || x2 == nil {
			return x1 == nil && x2 == nil // both unsolvable is consistent
		}
		for i := range x1 {
			if math.Abs(x1[i]-x2[i]) > 1e-6*(1+math.Abs(x1[i])) {
				t.Logf("node %d: %g vs %g", i, x1[i], x2[i])
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
