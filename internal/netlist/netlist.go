// Package netlist parses a practical subset of the SPICE netlist language
// into circuit.Circuit instances: the R/C/L/V/I/D/M/E/G elements,
// .MODEL cards for diodes and Level-1 MOSFETs, hierarchical .SUBCKT/X
// instantiation, .TRAN/.IC/.OPTIONS directives, engineering unit suffixes,
// continuation lines and comments. It also writes decks back out.
package netlist

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"

	"wavepipe/internal/circuit"
	"wavepipe/internal/device"
)

// TranSpec is the parsed .TRAN directive.
type TranSpec struct {
	TStep float64 // suggested print/output interval
	TStop float64
	TMax  float64 // optional max step (0 = engine default)
	UIC   bool
}

// ACSpec is the parsed .AC directive.
type ACSpec struct {
	Sweep  string // "dec", "oct" or "lin"
	Points int
	FStart float64
	FStop  float64
}

// DCSpec is the parsed .DC directive (single-source sweep).
type DCSpec struct {
	Source string // source instance name
	Start  float64
	Stop   float64
	Step   float64
}

// Deck is a fully parsed netlist.
type Deck struct {
	Title    string
	Circuit  *circuit.Circuit
	Tran     *TranSpec          // nil when the deck has no .TRAN
	AC       *ACSpec            // nil when the deck has no .AC
	DC       *DCSpec            // nil when the deck has no .DC
	ICs      map[string]float64 // node name -> initial voltage (.IC)
	NodeSets map[string]float64 // node name -> OP initial guess (.NODESET)
	Options  map[string]float64 // lower-cased .OPTIONS entries
	Params   map[string]float64 // resolved .PARAM values (lower-cased names)
	// Prints lists node names referenced by .PRINT/.PLOT/.PROBE/.SAVE
	// cards through v(node) terms. The simulator does not format print
	// output, but the parasitic-reduction pass must never collapse a node
	// the deck asks to observe, so these names feed the reduction keep
	// list. The deck writer deliberately does not emit the cards: they do
	// not change the circuit, and keeping them out of the canonical form
	// leaves artifact-cache keying to the layer that owns reduction
	// options.
	Prints []string
	// Src retains the deck text Parse consumed, so variant decks (ensemble
	// lanes with .PARAM overrides) can be re-elaborated without the caller
	// keeping the source around.
	Src string
}

// FindSource returns the named independent voltage source (for .DC sweeps
// and F/H controlling references); names are case-insensitive.
func (d *Deck) FindSource(name string) (*device.VSource, bool) {
	low := strings.ToLower(name)
	for _, dev := range d.Circuit.Devices() {
		if v, ok := dev.(*device.VSource); ok && strings.ToLower(v.Inst) == low {
			return v, true
		}
	}
	return nil, false
}

// Parse reads a SPICE deck. Following the SPICE convention, the first
// non-blank line is always the title (a leading '*' is stripped from it).
func Parse(input string) (*Deck, error) {
	return ParseParams(input, nil)
}

// ParseParams is Parse with .PARAM overrides: entries in over (names are
// case-insensitive) are pre-seeded and locked, so a .PARAM card in the deck
// cannot overwrite them — but expressions referencing the parameter resolve
// to the override. Ensemble lanes and -sweep use it to elaborate variants
// of one deck.
func ParseParams(input string, over map[string]float64) (*Deck, error) {
	p := &parser{
		deck: &Deck{
			ICs:      make(map[string]float64),
			NodeSets: make(map[string]float64),
			Options:  make(map[string]float64),
		},
		models:  make(map[string]modelCard),
		subckts: make(map[string]*subcktDef),
		sources: make(map[string]*device.VSource),
		inducts: make(map[string]*device.Inductor),
		params:  make(map[string]float64),
		sizes:   make(map[string]int),
	}
	if len(over) > 0 {
		p.locked = make(map[string]bool, len(over))
		for k, v := range over {
			lk := strings.ToLower(k)
			p.params[lk] = v
			p.locked[lk] = true
		}
	}
	p.deck.Src = input
	lines, title := preprocess(input)
	p.deck.Title = title
	// A deck's element lines bring about one device each and, on the
	// ladders and meshes that make decks long, one new node per two or three
	// devices.
	p.deck.Circuit = circuit.NewSized(title, len(lines)/2+1, len(lines))

	// First pass: collect .PARAM definitions, .SUBCKT bodies and .MODEL
	// cards so instantiation order does not matter; brace expressions are
	// substituted as each line is classified. The other lines are kept,
	// compacted in place, for the second pass, which splits each into one
	// reused buffer: this pass reads only an element line's first byte.
	// Top-level R, C and L lines are counted so that their devices come from
	// one array each.
	mainLines := lines[:0]
	var nR, nC, nL int
	var cur *subcktDef
	for _, ln := range lines {
		if len(ln) >= 6 && strings.EqualFold(ln[:6], ".param") {
			if err := p.parseParam(ln); err != nil {
				return nil, err
			}
			continue
		}
		ln, err := substituteParams(ln, p.params)
		if err != nil {
			return nil, err
		}
		key := ln[:1] // a directive's lower-cased name, else the line's letter
		if key == "." {
			key = strings.ToLower(strings.Fields(ln)[0])
		}
		switch {
		case key == ".subckt":
			fields := strings.Fields(ln)
			if cur != nil {
				return nil, fmt.Errorf("netlist: nested .SUBCKT at %q", ln)
			}
			if len(fields) < 3 {
				return nil, fmt.Errorf("netlist: malformed .SUBCKT %q", ln)
			}
			cur = &subcktDef{name: strings.ToLower(fields[1]), ports: fields[2:]}
		case key == ".ends":
			if cur == nil {
				return nil, fmt.Errorf("netlist: .ENDS without .SUBCKT")
			}
			p.subckts[cur.name] = cur
			cur = nil
		case cur != nil:
			cur.lines = append(cur.lines, strings.Fields(ln))
		case key == ".model":
			if err := p.parseModel(strings.Fields(ln)); err != nil {
				return nil, err
			}
		default:
			mainLines = append(mainLines, ln)
			switch key[0] | 0x20 {
			case 'r':
				nR++
			case 'c':
				nC++
			case 'l':
				nL++
			}
		}
	}
	if cur != nil {
		return nil, fmt.Errorf("netlist: unterminated .SUBCKT %q", cur.name)
	}
	p.res, p.caps, p.inds = make(slab[device.Resistor], nR), make(slab[device.Capacitor], nC), make(slab[device.Inductor], nL)

	var fields []string
	for _, ln := range mainLines {
		fields = appendFields(fields[:0], ln)
		if err := p.parseLine(fields, "", nil); err != nil {
			return nil, err
		}
	}
	for _, d := range p.deferred {
		if err := p.parseDeferred(d); err != nil {
			return nil, err
		}
	}
	p.deck.Params = p.params
	return p.deck, nil
}

// preprocess strips comments, joins continuation lines, extracts the title
// line and drops everything from .END on, in one pass.
func preprocess(input string) ([]string, string) {
	out := make([]string, 0, strings.Count(input, "\n")+1)
	ended := func() bool { // the last line is final and is .END
		if len(out) == 0 || out[len(out)-1][0] != '.' {
			return false
		}
		return strings.EqualFold(strings.TrimSpace(out[len(out)-1]), ".end")
	}
	title := ""
	first := true
	for more := true; more; {
		var ln string
		ln, input, more = strings.Cut(input, "\n")
		if i := strings.IndexByte(ln, ';'); i >= 0 {
			ln = ln[:i]
		}
		if i := strings.IndexByte(ln, '$'); i >= 0 {
			ln = ln[:i]
		}
		trimmed := strings.TrimSpace(ln)
		if trimmed == "" || strings.HasPrefix(trimmed, "*") {
			if first && strings.HasPrefix(trimmed, "*") {
				title = strings.TrimSpace(trimmed[1:])
				first = false
			}
			continue
		}
		if first {
			title = trimmed
			first = false
			continue
		}
		if strings.HasPrefix(trimmed, "+") {
			if len(out) > 0 {
				out[len(out)-1] += " " + strings.TrimSpace(trimmed[1:])
			}
			continue
		}
		if ended() {
			break
		}
		out = append(out, trimmed)
	}
	if ended() {
		out = out[:len(out)-1]
	}
	return out, title
}

// appendFields appends the fields of s to dst exactly as strings.Fields
// splits them. Blanks, tabs, CR and LF are split here; a line with any other
// byte strings.Fields may take for space (\v, \f, or any non-ASCII byte, as
// in U+0085 and U+00A0) is split by strings.Fields itself.
func appendFields(dst []string, s string) []string {
	n0, start := len(dst), -1
	for i := 0; i < len(s); i++ {
		switch byteClass[s[i]] {
		case fieldByte:
			if start < 0 {
				start = i
			}
		case splitByte:
			if start >= 0 {
				dst = append(dst, s[start:i])
				start = -1
			}
		default:
			return append(dst[:n0], strings.Fields(s)...)
		}
	}
	if start >= 0 {
		dst = append(dst, s[start:])
	}
	return dst
}

// byteClass sorts the bytes for appendFields.
var byteClass = func() (t [256]uint8) {
	for c := utf8.RuneSelf; c < 256; c++ {
		t[c] = otherByte
	}
	t['\v'], t['\f'] = otherByte, otherByte
	t[' '], t['\t'], t['\r'], t['\n'] = splitByte, splitByte, splitByte, splitByte
	return t
}()

const (
	fieldByte = iota // part of a field
	splitByte        // a space appendFields splits on
	otherByte        // a byte that sends the line to strings.Fields
)

// slabChunk is how many devices of one type a slab array holds once the
// array sized by the deck's top-level lines is used up (subcircuit bodies).
const slabChunk = 64

// slab hands out the elements of one array in turn, and makes the next
// array when it runs dry.
type slab[T any] []T

func (s *slab[T]) take() *T {
	if len(*s) == 0 {
		*s = make([]T, slabChunk)
	}
	t := &(*s)[0]
	*s = (*s)[1:]
	return t
}

// lower returns name lower-cased. A name without capitals is returned as it
// is; an ASCII one with capitals is folded into the parser's name arena, a
// strings.Builder whose bytes are never rewritten, so a deck written in
// capitals allocates no string per name.
func (p *parser) lower(name string) string {
	upper := false
	for i := 0; i < len(name); i++ {
		c := name[i]
		if c >= utf8.RuneSelf {
			return strings.ToLower(name)
		}
		upper = upper || 'A' <= c && c <= 'Z'
	}
	if !upper {
		return name
	}
	start := p.names.Len()
	for i := 0; i < len(name); i++ {
		c := name[i]
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		p.names.WriteByte(c)
	}
	return p.names.String()[start:]
}

type modelCard struct {
	kind   string // "d", "nmos", "pmos"
	params map[string]float64
}

type subcktDef struct {
	name  string
	ports []string
	lines [][]string // body lines, split into fields
}

type pendingLine struct {
	fields  []string
	prefix  string
	portMap map[string]string
}

// maxExpandedLines bounds the lines a deck's subcircuit instances expand to
// in all. Decks arrive over the network (the service's job API), and the
// nesting cap alone still lets ten instances a level grow exponentially.
const maxExpandedLines = 1 << 20

type parser struct {
	deck *Deck
	// names holds the lower-cased copies of names written with capitals;
	// res, caps and inds hold the deck's resistors, capacitors and
	// inductors.
	names strings.Builder
	res   slab[device.Resistor]
	caps  slab[device.Capacitor]
	inds  slab[device.Inductor]
	// lastName and lastNode are the top-level node looked up last.
	lastName string
	lastNode int

	models  map[string]modelCard
	subckts map[string]*subcktDef
	xDepth  int
	// expanded counts the lines the top-level instances expand to; sizes
	// memoizes one instance's count per subcircuit (-1 while counting).
	expanded int
	sizes    map[string]int
	// F, H and K elements reference other devices by name; they are
	// resolved after every element exists.
	deferred []pendingLine
	sources  map[string]*device.VSource
	inducts  map[string]*device.Inductor
	params   map[string]float64
	locked   map[string]bool // override-seeded params a .PARAM card cannot redefine
}

// parseParam handles ".PARAM name=expr ..." definitions; expressions may
// reference previously defined parameters.
func (p *parser) parseParam(ln string) error {
	body := strings.TrimSpace(ln)[len(".param"):]
	body = strings.ReplaceAll(body, " =", "=")
	body = strings.ReplaceAll(body, "= ", "=")
	for _, tok := range strings.Fields(body) {
		kv := strings.SplitN(tok, "=", 2)
		if len(kv) != 2 || kv[0] == "" {
			return fmt.Errorf("netlist: malformed .PARAM token %q", tok)
		}
		expr := strings.Trim(kv[1], "{}'")
		v, err := EvalExpr(expr, p.params)
		if err != nil {
			return err
		}
		if name := strings.ToLower(kv[0]); !p.locked[name] {
			p.params[name] = v
		}
	}
	return nil
}

// parseModel handles ".MODEL name TYPE(k=v ...)" (parens optional).
func (p *parser) parseModel(fields []string) error {
	if len(fields) < 3 {
		return fmt.Errorf("netlist: malformed .MODEL: %v", strings.Join(fields, " "))
	}
	name := strings.ToLower(fields[1])
	rest := strings.Join(fields[2:], " ")
	rest = strings.NewReplacer("(", " ", ")", " ", ",", " ", "=", " = ").Replace(rest)
	toks := strings.Fields(rest)
	if len(toks) == 0 {
		return fmt.Errorf("netlist: .MODEL %s missing type", name)
	}
	kind := strings.ToLower(toks[0])
	params := make(map[string]float64)
	i := 1
	for i < len(toks) {
		key := strings.ToLower(toks[i])
		if i+2 < len(toks)+1 && i+1 < len(toks) && toks[i+1] == "=" {
			if i+2 >= len(toks) {
				return fmt.Errorf("netlist: .MODEL %s: dangling %q", name, key)
			}
			v, err := ParseValue(toks[i+2])
			if err != nil {
				return fmt.Errorf("netlist: .MODEL %s: %v", name, err)
			}
			params[key] = v
			i += 3
			continue
		}
		// Bare "level 1"-style pair.
		if i+1 < len(toks) {
			if v, err := ParseValue(toks[i+1]); err == nil {
				params[key] = v
				i += 2
				continue
			}
		}
		i++
	}
	switch kind {
	case "d", "nmos", "pmos", "npn", "pnp", "sw":
		p.models[name] = modelCard{kind: kind, params: params}
		return nil
	default:
		return fmt.Errorf("netlist: unsupported .MODEL type %q", kind)
	}
}

// node resolves a node name within an X-expansion context: port names map
// to the caller's nets; internal names get the instance prefix.
func (p *parser) node(name string, prefix string, portMap map[string]string) int {
	key := p.lower(name)
	if key == "0" || key == "gnd" {
		return circuit.Ground
	}
	if portMap != nil {
		if mapped, ok := portMap[key]; ok {
			return p.deck.Circuit.Node(mapped)
		}
		return p.deck.Circuit.Node(prefix + key)
	}
	// Decks name again the node they named last (a ladder's resistor, then
	// its capacitor, then the next resistor): that one is remembered.
	if key != p.lastName {
		p.lastName, p.lastNode = key, p.deck.Circuit.Node(key)
	}
	return p.lastNode
}

// parseLine dispatches one element or directive line, split into fields.
// prefix/portMap carry subcircuit expansion context ("" and nil at top
// level).
func (p *parser) parseLine(fields []string, prefix string, portMap map[string]string) error {
	name := fields[0]
	kind := unicode.ToLower(rune(name[0]))
	inst := prefix + name
	nd := func(i int) int { return p.node(fields[i], prefix, portMap) }
	ckt := p.deck.Circuit

	switch kind {
	case '.':
		return p.parseDirective(fields)
	case 'r', 'c', 'l':
		if len(fields) < 4 {
			return fmt.Errorf("netlist: %s: need 2 nodes and a value", name)
		}
		v, err := ParseValue(fields[3])
		if err != nil {
			return fmt.Errorf("netlist: %s: %v", name, err)
		}
		switch kind {
		case 'r':
			if v == 0 {
				return fmt.Errorf("netlist: %s: zero resistance", name)
			}
			r := p.res.take()
			*r = *device.NewResistor(inst, nd(1), nd(2), v)
			ckt.Add(r)
		case 'c':
			c := p.caps.take()
			*c = *device.NewCapacitor(inst, nd(1), nd(2), v)
			ckt.Add(c)
		default:
			l := p.inds.take()
			*l = *device.NewInductor(inst, nd(1), nd(2), v)
			ckt.Add(l)
			p.inducts[p.lower(inst)] = l
		}
		return nil
	case 'v', 'i':
		if len(fields) < 4 {
			return fmt.Errorf("netlist: %s: need 2 nodes and a source spec", name)
		}
		waveFields, acMag, acPhase, err := splitACSpec(fields[3:])
		if err != nil {
			return fmt.Errorf("netlist: %s: %v", name, err)
		}
		w, err := parseWaveform(strings.Join(waveFields, " "))
		if err != nil {
			return fmt.Errorf("netlist: %s: %v", name, err)
		}
		if kind == 'v' {
			src := device.NewVSource(inst, nd(1), nd(2), w)
			src.ACMag, src.ACPhase = acMag, acPhase
			ckt.Add(src)
			p.sources[p.lower(inst)] = src
		} else {
			src := device.NewISource(inst, nd(1), nd(2), w)
			src.ACMag, src.ACPhase = acMag, acPhase
			ckt.Add(src)
		}
		return nil
	case 'd':
		if len(fields) < 4 {
			return fmt.Errorf("netlist: %s: need 2 nodes and a model", name)
		}
		mc, ok := p.models[p.lower(fields[3])]
		if !ok || mc.kind != "d" {
			return fmt.Errorf("netlist: %s: unknown diode model %q", name, fields[3])
		}
		area := 1.0
		if len(fields) >= 5 {
			a, err := ParseValue(fields[4])
			if err == nil {
				area = a
			}
		}
		ckt.Add(device.NewDiode(inst, nd(1), nd(2), diodeModel(mc.params), area))
		return nil
	case 'm':
		if len(fields) < 6 {
			return fmt.Errorf("netlist: %s: need d g s b nodes and a model", name)
		}
		mc, ok := p.models[p.lower(fields[5])]
		if !ok || (mc.kind != "nmos" && mc.kind != "pmos") {
			return fmt.Errorf("netlist: %s: unknown MOS model %q", name, fields[5])
		}
		w, l := 10e-6, 1e-6
		for _, f := range fields[6:] {
			kv := strings.SplitN(f, "=", 2)
			if len(kv) != 2 {
				continue
			}
			v, err := ParseValue(kv[1])
			if err != nil {
				return fmt.Errorf("netlist: %s: %v", name, err)
			}
			switch strings.ToLower(kv[0]) {
			case "w":
				w = v
			case "l":
				l = v
			}
		}
		if lv, ok := mc.params["level"]; ok && lv >= 2 {
			ckt.Add(device.NewMOSFETEKV(inst, nd(1), nd(2), nd(3), nd(4), ekvModel(mc), w, l))
		} else {
			ckt.Add(device.NewMOSFET(inst, nd(1), nd(2), nd(3), nd(4), mosModel(mc), w, l))
		}
		return nil
	case 'e':
		if len(fields) < 6 {
			return fmt.Errorf("netlist: %s: need 4 nodes and a gain", name)
		}
		g, err := ParseValue(fields[5])
		if err != nil {
			return fmt.Errorf("netlist: %s: %v", name, err)
		}
		ckt.Add(device.NewVCVS(inst, nd(1), nd(2), nd(3), nd(4), g))
		return nil
	case 'g':
		if len(fields) < 6 {
			return fmt.Errorf("netlist: %s: need 4 nodes and a transconductance", name)
		}
		g, err := ParseValue(fields[5])
		if err != nil {
			return fmt.Errorf("netlist: %s: %v", name, err)
		}
		ckt.Add(device.NewVCCS(inst, nd(1), nd(2), nd(3), nd(4), g))
		return nil
	case 'q':
		if len(fields) < 5 {
			return fmt.Errorf("netlist: %s: need c b e nodes and a model", name)
		}
		mc, ok := p.models[p.lower(fields[4])]
		if !ok || (mc.kind != "npn" && mc.kind != "pnp") {
			return fmt.Errorf("netlist: %s: unknown BJT model %q", name, fields[4])
		}
		area := 1.0
		if len(fields) >= 6 {
			if a, err := ParseValue(fields[5]); err == nil {
				area = a
			}
		}
		ckt.Add(device.NewBJT(inst, nd(1), nd(2), nd(3), bjtModel(mc), area))
		return nil
	case 's':
		if len(fields) < 6 {
			return fmt.Errorf("netlist: %s: need p n cp cn and a model", name)
		}
		mc, ok := p.models[p.lower(fields[5])]
		if !ok || mc.kind != "sw" {
			return fmt.Errorf("netlist: %s: unknown switch model %q", name, fields[5])
		}
		ckt.Add(device.NewSwitch(inst, nd(1), nd(2), nd(3), nd(4), switchModel(mc)))
		return nil
	case 'f', 'h', 'k':
		p.deferred = append(p.deferred, pendingLine{fields: slices.Clone(fields), prefix: prefix, portMap: portMap})
		return nil
	case 'x':
		return p.expandSubckt(fields, prefix, portMap)
	default:
		return fmt.Errorf("netlist: unsupported element %q", name)
	}
}

// parseDeferred resolves F, H and K elements once every referenced device
// exists.
func (p *parser) parseDeferred(d pendingLine) error {
	fields := d.fields
	name := fields[0]
	inst := d.prefix + name
	nd := func(i int) int { return p.node(fields[i], d.prefix, d.portMap) }
	ckt := p.deck.Circuit
	switch strings.ToLower(name[:1]) {
	case "f", "h":
		if len(fields) < 5 {
			return fmt.Errorf("netlist: %s: need 2 nodes, a V source and a gain", name)
		}
		ref := strings.ToLower(d.prefix + fields[3])
		src, ok := p.sources[ref]
		if !ok {
			// Fall back to a global (unprefixed) reference.
			src, ok = p.sources[strings.ToLower(fields[3])]
		}
		if !ok {
			return fmt.Errorf("netlist: %s: unknown controlling source %q", name, fields[3])
		}
		g, err := ParseValue(fields[4])
		if err != nil {
			return fmt.Errorf("netlist: %s: %v", name, err)
		}
		if strings.ToLower(name[:1]) == "f" {
			ckt.Add(device.NewCCCS(inst, nd(1), nd(2), src, g))
		} else {
			ckt.Add(device.NewCCVS(inst, nd(1), nd(2), src, g))
		}
		return nil
	default: // k
		if len(fields) < 4 {
			return fmt.Errorf("netlist: %s: need two inductors and a coefficient", name)
		}
		find := func(ref string) (*device.Inductor, bool) {
			if l, ok := p.inducts[strings.ToLower(d.prefix+ref)]; ok {
				return l, true
			}
			l, ok := p.inducts[strings.ToLower(ref)]
			return l, ok
		}
		l1, ok1 := find(fields[1])
		l2, ok2 := find(fields[2])
		if !ok1 || !ok2 {
			return fmt.Errorf("netlist: %s: unknown inductor reference", name)
		}
		k, err := ParseValue(fields[3])
		if err != nil {
			return fmt.Errorf("netlist: %s: %v", name, err)
		}
		ckt.Add(device.NewMutual(inst, l1, l2, k))
		return nil
	}
}

// splitACSpec separates a trailing "AC mag [phase]" specification from a
// source definition, tracking parenthesis depth so PULSE(...) arguments are
// never mistaken for it.
func splitACSpec(fields []string) (wave []string, mag, phase float64, err error) {
	depth := 0
	for i, f := range fields {
		if depth == 0 && strings.EqualFold(f, "ac") {
			rest := fields[i+1:]
			// The AC spec is "AC [mag [phase]]": consume at most two
			// numeric tokens; anything else (e.g. a following SIN(...)
			// transient spec) stays part of the waveform.
			mag = 1
			consumed := 0
			if len(rest) >= 1 {
				if v, perr := ParseValue(rest[0]); perr == nil {
					mag = v
					consumed = 1
					if len(rest) >= 2 {
						if ph, perr := ParseValue(rest[1]); perr == nil {
							phase = ph
							consumed = 2
						}
					}
				}
			}
			wave = append([]string{}, fields[:i]...)
			wave = append(wave, rest[consumed:]...)
			return wave, mag, phase, nil
		}
		depth += strings.Count(f, "(") - strings.Count(f, ")")
	}
	return fields, 0, 0, nil
}

// expandSubckt instantiates "Xname n1 n2 ... subname" by re-parsing the
// definition body with node renaming.
func (p *parser) expandSubckt(fields []string, prefix string, portMap map[string]string) error {
	if len(fields) < 2 {
		return fmt.Errorf("netlist: malformed X line")
	}
	subName := strings.ToLower(fields[len(fields)-1])
	def, ok := p.subckts[subName]
	if !ok {
		return fmt.Errorf("netlist: unknown subcircuit %q", subName)
	}
	actuals := fields[1 : len(fields)-1]
	if len(actuals) != len(def.ports) {
		return fmt.Errorf("netlist: %s: %d nodes for %d ports of %q",
			fields[0], len(actuals), len(def.ports), subName)
	}
	if p.xDepth > 20 {
		return fmt.Errorf("netlist: subcircuit nesting too deep (recursive %q?)", subName)
	}
	if p.xDepth == 0 {
		// Counted before anything is built: a nested instance is in its
		// top-level instance's count.
		if p.expanded += p.instanceLines(subName); p.expanded > maxExpandedLines {
			return fmt.Errorf("netlist: %s: subcircuit %q expands the deck past %d lines", fields[0], subName, maxExpandedLines)
		}
	}
	inner := make(map[string]string, len(def.ports))
	for i, port := range def.ports {
		// Resolve the actual net in the caller's context to a flat name.
		actual := strings.ToLower(actuals[i])
		flat := actual
		if portMap != nil {
			if mapped, ok := portMap[actual]; ok {
				flat = mapped
			} else if actual != "0" && actual != "gnd" {
				flat = prefix + actual
			}
		}
		inner[strings.ToLower(port)] = flat
	}
	newPrefix := prefix + strings.ToLower(fields[0]) + "."
	p.xDepth++
	defer func() { p.xDepth-- }()
	for _, f := range def.lines {
		if err := p.parseLine(f, newPrefix, inner); err != nil {
			return err
		}
	}
	return nil
}

// instanceLines returns how many lines one instance of the named subcircuit
// parses, nested instances included (an X line counts itself and its body),
// saturating past maxExpandedLines: a subcircuit that instantiates itself
// expands without end. An unknown one counts nothing; its expansion reports it.
func (p *parser) instanceLines(name string) int {
	if n, ok := p.sizes[name]; ok {
		if n < 0 {
			return maxExpandedLines + 1
		}
		return n
	}
	def, ok := p.subckts[name]
	if !ok {
		return 0
	}
	p.sizes[name] = -1
	n := 0
	for _, f := range def.lines {
		if n > maxExpandedLines {
			break
		}
		n++
		if len(f) >= 2 && strings.EqualFold(f[0][:1], "x") {
			n += p.instanceLines(strings.ToLower(f[len(f)-1]))
		}
	}
	n = min(n, maxExpandedLines+1)
	p.sizes[name] = n
	return n
}

func (p *parser) parseDirective(fields []string) error {
	switch strings.ToLower(fields[0]) {
	case ".tran":
		if len(fields) < 3 {
			return fmt.Errorf("netlist: .TRAN needs tstep and tstop")
		}
		ts, err := ParseValue(fields[1])
		if err != nil {
			return err
		}
		stop, err := ParseValue(fields[2])
		if err != nil {
			return err
		}
		spec := &TranSpec{TStep: ts, TStop: stop}
		for _, f := range fields[3:] {
			if strings.EqualFold(f, "uic") {
				spec.UIC = true
			} else if v, err := ParseValue(f); err == nil {
				spec.TMax = v
			}
		}
		p.deck.Tran = spec
		return nil
	case ".ic", ".nodeset":
		// .IC/.NODESET V(node)=value ...
		dst := p.deck.ICs
		if strings.ToLower(fields[0]) == ".nodeset" {
			dst = p.deck.NodeSets
		}
		joined := strings.Join(fields[1:], " ")
		joined = strings.ReplaceAll(joined, " =", "=")
		joined = strings.ReplaceAll(joined, "= ", "=")
		for _, tok := range strings.Fields(joined) {
			kv := strings.SplitN(tok, "=", 2)
			if len(kv) != 2 {
				return fmt.Errorf("netlist: malformed %s token %q", fields[0], tok)
			}
			key := strings.ToLower(strings.TrimSpace(kv[0]))
			if !strings.HasPrefix(key, "v(") || !strings.HasSuffix(key, ")") {
				return fmt.Errorf("netlist: %s expects V(node)=val, got %q", fields[0], tok)
			}
			node := key[2 : len(key)-1]
			v, err := ParseValue(kv[1])
			if err != nil {
				return err
			}
			dst[node] = v
		}
		return nil
	case ".options", ".option":
		for _, tok := range fields[1:] {
			kv := strings.SplitN(tok, "=", 2)
			key := strings.ToLower(kv[0])
			if len(kv) == 1 {
				p.deck.Options[key] = 1
				continue
			}
			v, err := ParseValue(kv[1])
			if err != nil {
				return fmt.Errorf("netlist: .OPTIONS %s: %v", key, err)
			}
			p.deck.Options[key] = v
		}
		return nil
	case ".ac":
		if len(fields) < 5 {
			return fmt.Errorf("netlist: .AC needs sweep, points, fstart, fstop")
		}
		sweep := strings.ToLower(fields[1])
		if sweep != "dec" && sweep != "oct" && sweep != "lin" {
			return fmt.Errorf("netlist: .AC sweep must be dec, oct or lin")
		}
		pts, err := ParseValue(fields[2])
		if err != nil {
			return err
		}
		f1, err := ParseValue(fields[3])
		if err != nil {
			return err
		}
		f2, err := ParseValue(fields[4])
		if err != nil {
			return err
		}
		p.deck.AC = &ACSpec{Sweep: sweep, Points: int(pts), FStart: f1, FStop: f2}
		return nil
	case ".dc":
		if len(fields) < 5 {
			return fmt.Errorf("netlist: .DC needs source, start, stop, step")
		}
		start, err := ParseValue(fields[2])
		if err != nil {
			return err
		}
		stop, err := ParseValue(fields[3])
		if err != nil {
			return err
		}
		step, err := ParseValue(fields[4])
		if err != nil {
			return err
		}
		p.deck.DC = &DCSpec{Source: fields[1], Start: start, Stop: stop, Step: step}
		return nil
	case ".print", ".plot", ".probe", ".save":
		// Output cards produce no simulator action, but v(node) references
		// mark nodes the user observes: record them so reduction keeps them.
		for _, f := range fields[1:] {
			low := strings.ToLower(f)
			if strings.HasPrefix(low, "v(") && strings.HasSuffix(low, ")") {
				if name := strings.TrimSpace(f[2 : len(f)-1]); name != "" {
					p.deck.Prints = append(p.deck.Prints, name)
				}
			}
		}
		return nil
	case ".op", ".temp", ".global":
		return nil // accepted and ignored
	default:
		return fmt.Errorf("netlist: unsupported directive %q", fields[0])
	}
}

// diodeModel converts a parsed parameter map to a device model card.
func diodeModel(params map[string]float64) device.DiodeModel {
	m := device.DefaultDiodeModel()
	for k, v := range params {
		switch k {
		case "is":
			m.IS = v
		case "n":
			m.N = v
		case "tt":
			m.TT = v
		case "cj0", "cjo":
			m.CJ0 = v
		case "vj":
			m.VJ = v
		case "m":
			m.M = v
		case "fc":
			m.FC = v
		}
	}
	return m
}

// bjtModel converts a parsed parameter map to a device model card.
func bjtModel(mc modelCard) device.BJTModel {
	t := device.NPN
	if mc.kind == "pnp" {
		t = device.PNP
	}
	m := device.DefaultBJTModel(t)
	for k, v := range mc.params {
		switch k {
		case "is":
			m.IS = v
		case "bf":
			m.BF = v
		case "br":
			m.BR = v
		case "nf":
			m.NF = v
		case "nr":
			m.NR = v
		case "vaf", "va":
			m.VAF = v
		case "tf":
			m.TF = v
		case "tr":
			m.TR = v
		case "cje":
			m.CJE = v
		case "vje":
			m.VJE = v
		case "mje":
			m.MJE = v
		case "cjc":
			m.CJC = v
		case "vjc":
			m.VJC = v
		case "mjc":
			m.MJC = v
		case "fc":
			m.FC = v
		}
	}
	return m
}

// switchModel converts a parsed parameter map to a device model card.
func switchModel(mc modelCard) device.SwitchModel {
	m := device.DefaultSwitchModel()
	for k, v := range mc.params {
		switch k {
		case "ron":
			m.RON = v
		case "roff":
			m.ROFF = v
		case "vt":
			m.VT = v
		case "dv", "vh":
			m.DV = v
		}
	}
	return m
}

// ekvModel converts a parsed parameter map to an EKV card (MOS level >= 2).
func ekvModel(mc modelCard) device.EKVModel {
	t := device.NMOS
	if mc.kind == "pmos" {
		t = device.PMOS
	}
	m := device.DefaultEKVModel(t)
	for k, v := range mc.params {
		switch k {
		case "vto", "vt0":
			if v < 0 {
				v = -v
			}
			m.VTO = v
		case "kp":
			m.KP = v
		case "nfactor", "n":
			m.N = v
		case "lambda":
			m.LAMBDA = v
		case "cox":
			m.COX = v
		case "cgso":
			m.CGSO = v
		case "cgdo":
			m.CGDO = v
		}
	}
	return m
}

// mosModel converts a parsed parameter map to a device model card.
func mosModel(mc modelCard) device.MOSModel {
	t := device.NMOS
	if mc.kind == "pmos" {
		t = device.PMOS
	}
	m := device.DefaultMOSModel(t)
	for k, v := range mc.params {
		switch k {
		case "vto", "vt0":
			if v < 0 {
				v = -v // store magnitude; polarity comes from the type
			}
			m.VTO = v
		case "kp":
			m.KP = v
		case "gamma":
			m.GAMMA = v
		case "phi":
			m.PHI = v
		case "lambda":
			m.LAMBDA = v
		case "cox":
			m.COX = v
		case "cgso":
			m.CGSO = v
		case "cgdo":
			m.CGDO = v
		case "cgbo":
			m.CGBO = v
		case "cbd":
			m.CBD = v
		case "cbs":
			m.CBS = v
		}
	}
	return m
}

// parseWaveform parses a source specification: "DC 5", "5", "PULSE(...)",
// "SIN(...)", "PWL(...)", "EXP(...)".
func parseWaveform(spec string) (device.Waveform, error) {
	s := strings.TrimSpace(spec)
	low := strings.ToLower(s)
	switch {
	case strings.HasPrefix(low, "dc"):
		rest := strings.Fields(strings.TrimSpace(s[2:]))
		if len(rest) == 0 {
			return nil, fmt.Errorf("DC value missing")
		}
		v, err := ParseValue(rest[0])
		if err != nil {
			return nil, err
		}
		// SPICE allows "DC v SIN(...)": the DC value seeds the operating
		// point and the function drives the transient. Our OP evaluates
		// the waveform at t = 0, so the transient function wins when both
		// are present.
		if len(rest) > 1 {
			return parseWaveform(strings.Join(rest[1:], " "))
		}
		return device.DC(v), nil
	case strings.HasPrefix(low, "pulse"):
		vals, err := parseArgs(s[5:], 7)
		if err != nil {
			return nil, fmt.Errorf("PULSE: %v", err)
		}
		return device.Pulse{V1: vals[0], V2: vals[1], Delay: vals[2],
			Rise: vals[3], Fall: vals[4], Width: vals[5], Period: vals[6]}, nil
	case strings.HasPrefix(low, "sin"):
		vals, err := parseArgs(s[3:], 5)
		if err != nil {
			return nil, fmt.Errorf("SIN: %v", err)
		}
		return device.Sin{Offset: vals[0], Amplitude: vals[1], Freq: vals[2],
			Delay: vals[3], Damping: vals[4]}, nil
	case strings.HasPrefix(low, "pwl"):
		vals, err := parseArgs(s[3:], -1)
		if err != nil {
			return nil, fmt.Errorf("PWL: %v", err)
		}
		if len(vals) < 2 || len(vals)%2 != 0 {
			return nil, fmt.Errorf("PWL: need an even number of values")
		}
		w := device.PWL{}
		for i := 0; i < len(vals); i += 2 {
			w.Times = append(w.Times, vals[i])
			w.Values = append(w.Values, vals[i+1])
		}
		return w, nil
	case strings.HasPrefix(low, "exp"):
		vals, err := parseArgs(s[3:], 6)
		if err != nil {
			return nil, fmt.Errorf("EXP: %v", err)
		}
		return device.Exp{V1: vals[0], V2: vals[1], TD1: vals[2],
			Tau1: vals[3], TD2: vals[4], Tau2: vals[5]}, nil
	default:
		v, err := ParseValue(s)
		if err != nil {
			return nil, fmt.Errorf("unrecognized source spec %q", spec)
		}
		return device.DC(v), nil
	}
}

// parseArgs parses "(a b c)" or "a b c" into want values (missing trailing
// arguments default to 0; want < 0 accepts any count).
func parseArgs(s string, want int) ([]float64, error) {
	s = strings.NewReplacer("(", " ", ")", " ", ",", " ").Replace(s)
	fields := strings.Fields(s)
	var vals []float64
	for _, f := range fields {
		v, err := ParseValue(f)
		if err != nil {
			return nil, err
		}
		vals = append(vals, v)
	}
	if want < 0 {
		return vals, nil
	}
	if len(vals) > want {
		return nil, fmt.Errorf("too many arguments: %d > %d", len(vals), want)
	}
	for len(vals) < want {
		vals = append(vals, 0)
	}
	return vals, nil
}

// ParseValue parses a SPICE number with an optional engineering suffix:
// f p n u m k meg g t (case-insensitive; "meg" before "m"). Trailing unit
// text ("5pF", "10kOhm") is ignored, as in SPICE.
func ParseValue(s string) (float64, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return 0, fmt.Errorf("empty value")
	}
	// Split mantissa from suffix.
	i := 0
	for i < len(s) {
		c := s[i]
		if (c >= '0' && c <= '9') || c == '.' || c == '+' || c == '-' {
			i++
			continue
		}
		if c|0x20 == 'e' && i+1 < len(s) && (s[i+1] == '+' || s[i+1] == '-' || (s[i+1] >= '0' && s[i+1] <= '9')) {
			i += 2
			continue
		}
		break
	}
	mant, err := strconv.ParseFloat(s[:i], 64)
	if err != nil {
		return 0, fmt.Errorf("bad number %q", strings.ToLower(s))
	}
	// Only the suffix's case matters, and an ASCII one folds in place.
	suffix := s[i:]
	if strings.ContainsFunc(suffix, func(r rune) bool { return r >= utf8.RuneSelf }) {
		suffix = strings.ToLower(suffix)
	}
	switch {
	case suffix == "":
		return mant, nil
	case len(suffix) >= 3 && strings.EqualFold(suffix[:3], "meg"):
		return mant * 1e6, nil
	case len(suffix) >= 3 && strings.EqualFold(suffix[:3], "mil"):
		return mant * 25.4e-6, nil
	case suffix[0]|0x20 == 'f':
		return mant * 1e-15, nil
	case suffix[0]|0x20 == 'p':
		return mant * 1e-12, nil
	case suffix[0]|0x20 == 'n':
		return mant * 1e-9, nil
	case suffix[0]|0x20 == 'u':
		return mant * 1e-6, nil
	case suffix[0]|0x20 == 'm':
		return mant * 1e-3, nil
	case suffix[0]|0x20 == 'k':
		return mant * 1e3, nil
	case suffix[0]|0x20 == 'g':
		return mant * 1e9, nil
	case suffix[0]|0x20 == 't':
		return mant * 1e12, nil
	default:
		// Unit text like "5v", "3a", "2ohm".
		return mant, nil
	}
}

// FormatValue renders a value with an engineering suffix, the inverse of
// ParseValue for round-trip deck writing.
func FormatValue(v float64) string {
	abs := v
	if abs < 0 {
		abs = -abs
	}
	switch {
	case v == 0:
		return "0"
	case abs >= 1e12:
		return trim(v/1e12) + "t"
	case abs >= 1e9:
		return trim(v/1e9) + "g"
	case abs >= 1e6:
		return trim(v/1e6) + "meg"
	case abs >= 1e3:
		return trim(v/1e3) + "k"
	case abs >= 1:
		return trim(v)
	case abs >= 1e-3:
		return trim(v*1e3) + "m"
	case abs >= 1e-6:
		return trim(v*1e6) + "u"
	case abs >= 1e-9:
		return trim(v*1e9) + "n"
	case abs >= 1e-12:
		return trim(v*1e12) + "p"
	default:
		return trim(v*1e15) + "f"
	}
}

func trim(v float64) string {
	// Shortest representation that parses back to the same float64:
	// decks round-trip losslessly.
	return strconv.FormatFloat(v, 'g', -1, 64)
}
