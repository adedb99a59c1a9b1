package wire

import (
	"bufio"
	"bytes"
	"errors"
	"flag"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"wavepipe"
)

var updateFrameGolden = flag.Bool("update-frame-golden", false,
	"rewrite testdata/result.golden.frame from testdata/result.golden.json")

// sameBits reports whether a and b hold the same float64 bit patterns (so
// NaN equals NaN and -0 differs from 0); nil and empty are alike.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// sameResult compares every field of two wire results, the rows by bits.
func sameResult(t *testing.T, got, want *Result) {
	t.Helper()
	if !sameBits(got.Times, want.Times) || len(got.Data) != len(want.Data) {
		t.Fatalf("times differ: %v vs %v", got.Times, want.Times)
	}
	for k := range want.Data {
		if !sameBits(got.Data[k], want.Data[k]) {
			t.Fatalf("row %d differs: %v vs %v", k, got.Data[k], want.Data[k])
		}
	}
	if !sameBits(got.FinalX, want.FinalX) {
		t.Fatalf("finalX differs: %v vs %v", got.FinalX, want.FinalX)
	}
	if got.SchemaVersion != want.SchemaVersion || got.Stats != want.Stats || got.Err != want.Err ||
		!reflect.DeepEqual(got.Signals, want.Signals) || !reflect.DeepEqual(got.Index, want.Index) {
		t.Fatalf("head differs:\n got %+v\nwant %+v", got, want)
	}
}

// frameOf is r as WriteResultFrame writes it.
func frameOf(t *testing.T, r *Result) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := WriteResultFrame(&b, r); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

func readResultFrame(b []byte) (*Result, error) {
	return ReadResultFrame(bufio.NewReaderSize(bytes.NewReader(b), 16))
}

// TestResultFrameGolden: the framed golden JSON result is byte for byte the
// golden frame, and the golden frame reads back as that result. The golden
// file pins the layout: a JSON head line, then u32 n · n × (t, values…) f64.
func TestResultFrameGolden(t *testing.T) {
	want, err := DecodeResult(bytes.NewReader(readGolden(t, "result.golden.json")))
	if err != nil {
		t.Fatal(err)
	}
	frame := frameOf(t, want)
	path := filepath.Join("testdata", "result.golden.frame")
	if *updateFrameGolden {
		if err := os.WriteFile(path, frame, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	golden := readGolden(t, "result.golden.frame")
	if !bytes.Equal(frame, golden) {
		t.Fatalf("frame drifted from golden (rerun with -update-frame-golden if the layout changed on purpose):\n got %x\nwant %x", frame, golden)
	}
	rows := golden[bytes.IndexByte(golden, '\n')+1:]
	if n := len(want.Times); len(rows) != 4+8*n*(len(want.Signals)+1) || rows[0] != byte(n) {
		t.Fatalf("rows after the head: %x", rows)
	}
	got, err := readResultFrame(golden)
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, got, want)
	if _, err := got.ToResult(); err != nil {
		t.Fatal(err)
	}
}

// specials are the float64 values a text encoding is most likely to bend.
var specials = []float64{
	math.NaN(), math.Float64frombits(0x7ff0000000000001), // quiet and signalling NaN
	math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0,
	math.SmallestNonzeroFloat64, -4.9e-322, math.MaxFloat64,
}

// TestFramesKeepEveryBit: NaN, ±Inf, −0 and subnormals cross a result and a
// stream frame bit for bit.
func TestFramesKeepEveryBit(t *testing.T) {
	r := &Result{
		SchemaVersion: SchemaVersion,
		Signals:       make([]string, len(specials)),
		Times:         []float64{0, math.SmallestNonzeroFloat64, 1},
		Data:          [][]float64{specials, specials, specials},
		FinalX:        []float64{1},
	}
	got, err := readResultFrame(frameOf(t, r))
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, got, r)

	pts := make([]wavepipe.StreamPoint, len(specials))
	for i, v := range specials {
		pts[i] = wavepipe.StreamPoint{T: v, Values: specials}
	}
	br := bufio.NewReaderSize(bytes.NewReader(AppendStreamFrame(nil, pts)), 16)
	back, err := ReadStreamFrame(br, len(specials))
	if err != nil || len(back) != len(pts) {
		t.Fatalf("read %d points, %v", len(back), err)
	}
	for i := range pts {
		if !sameBits([]float64{back[i].T}, []float64{pts[i].T}) || !sameBits(back[i].Values, pts[i].Values) {
			t.Fatalf("point %d: %v vs %v", i, back[i], pts[i])
		}
	}
	if _, err := ReadStreamFrame(br, len(specials)); err != io.EOF {
		t.Fatalf("after the last frame: %v, want io.EOF", err)
	}
}

// TestReadResultFrameRefuses: every malformed framed result is an error,
// never a panic or a silently short result.
func TestReadResultFrameRefuses(t *testing.T) {
	const head = `{"schemaVersion":1,"signals":["a"],"index":null,"times":null,"data":null,"stats":{}}` + "\n"
	rows := AppendStreamFrame(nil, []wavepipe.StreamPoint{{T: 0, Values: []float64{1}}, {T: 1, Values: []float64{2}}})
	good := append([]byte(head), rows...)
	if r, err := readResultFrame(good); err != nil || len(r.Times) != 2 {
		t.Fatalf("well-formed frame: %v, %v", r, err)
	}
	cases := map[string][]byte{
		"unknown field":  []byte(strings.Replace(head, `"stats"`, `"bogus":1,"stats"`, 1)),
		"schema version": []byte(strings.Replace(head, `:1,`, `:2,`, 1)),
		"rows in head":   []byte(strings.Replace(head, `"times":null`, `"times":[0]`, 1)),
		"head not JSON":  []byte("{\n"),
		"no head line":   []byte(head[:len(head)-1]),
		"huge frame":     append([]byte(head), 0xff, 0xff, 0xff, 0xff),
		"empty":          {},
	}
	for cut := len(head) + 1; cut < len(good); cut++ {
		if _, err := readResultFrame(good[:cut]); !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("cut at %d: %v, want io.ErrUnexpectedEOF", cut, err)
		}
	}
	for name, data := range cases {
		if _, err := readResultFrame(data); err == nil {
			t.Fatalf("%s: read", name)
		}
	}
}

// TestReadStreamFrameEnds: a stream that stops at a frame boundary ends with
// io.EOF; one cut anywhere inside a frame ends with io.ErrUnexpectedEOF; a
// frame over the 64 MiB bound is refused before anything is allocated.
func TestReadStreamFrameEnds(t *testing.T) {
	a := []wavepipe.StreamPoint{{T: 0, Values: []float64{1, 2}}, {T: 1, Values: []float64{3, 4}}}
	b := []wavepipe.StreamPoint{{T: 2, Values: []float64{5, 6}}}
	stream := AppendStreamFrame(AppendStreamFrame(nil, a), b)
	br := bufio.NewReaderSize(bytes.NewReader(stream), 16)
	for _, want := range [][]wavepipe.StreamPoint{a, b} {
		got, err := ReadStreamFrame(br, 2)
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("got %v, %v; want %v", got, err, want)
		}
	}
	if _, err := ReadStreamFrame(br, 2); err != io.EOF {
		t.Fatalf("at the boundary: %v, want io.EOF", err)
	}
	first := len(AppendStreamFrame(nil, a))
	for cut := 1; cut < first; cut++ {
		br := bufio.NewReaderSize(bytes.NewReader(stream[:cut]), 16)
		if _, err := ReadStreamFrame(br, 2); !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("cut at %d: %v, want io.ErrUnexpectedEOF", cut, err)
		}
	}
	huge := AppendStreamFrame(nil, nil)
	huge[0], huge[1], huge[2], huge[3] = 0xff, 0xff, 0xff, 0xff
	if _, err := ReadStreamFrame(bufio.NewReader(bytes.NewReader(huge)), 2); err == nil || errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("oversized frame: %v, want a bound error", err)
	}
	if n := StreamFrameRows(2); n*3*8 > 64<<20 || (n+1)*3*8 <= 64<<20 {
		t.Fatalf("StreamFrameRows(2) = %d does not fill the 64 MiB bound", n)
	}
}
