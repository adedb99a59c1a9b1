package wire

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"wavepipe"
)

func readGolden(t *testing.T, name string) []byte {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// jsonEqual compares two JSON documents structurally.
func jsonEqual(t *testing.T, a, b []byte) bool {
	t.Helper()
	var va, vb any
	if err := json.Unmarshal(a, &va); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &vb); err != nil {
		t.Fatal(err)
	}
	return reflect.DeepEqual(va, vb)
}

// TestJobRequestGoldenRoundTrip: golden JSON → wire → facade → wire → JSON
// reproduces the document exactly. The golden file pins the schema: any
// rename or retype of a wire field breaks this test.
func TestJobRequestGoldenRoundTrip(t *testing.T) {
	golden := readGolden(t, "job_request.golden.json")
	req, err := DecodeJobRequest(bytes.NewReader(golden))
	if err != nil {
		t.Fatal(err)
	}
	opts, err := req.Options.ToTranOptions()
	if err != nil {
		t.Fatal(err)
	}
	if opts.Scheme != wavepipe.Combined || opts.Method != wavepipe.Trapezoidal {
		t.Fatalf("enum decode: scheme=%v method=%v", opts.Scheme, opts.Method)
	}
	if opts.Deadline.Seconds() != 30 {
		t.Fatalf("deadline = %v, want 30s", opts.Deadline)
	}
	back := FromTranOptions(opts)
	out := JobRequest{
		SchemaVersion: SchemaVersion,
		Deck:          req.Deck,
		Options:       &back,
		Priority:      req.Priority,
		Label:         req.Label,
	}
	var buf bytes.Buffer
	if err := Encode(&buf, out); err != nil {
		t.Fatal(err)
	}
	if !jsonEqual(t, golden, buf.Bytes()) {
		t.Fatalf("round trip drifted from golden:\n got: %s\nwant: %s", buf.Bytes(), golden)
	}
}

// TestResultGoldenRoundTrip: the result document survives wire → facade →
// wire untouched, and the rebuilt waveform set answers queries.
func TestResultGoldenRoundTrip(t *testing.T) {
	golden := readGolden(t, "result.golden.json")
	wres, err := DecodeResult(bytes.NewReader(golden))
	if err != nil {
		t.Fatal(err)
	}
	res, err := wres.ToResult()
	if err != nil {
		t.Fatal(err)
	}
	if v, err := res.W.At("out", 2e-9); err != nil || v != 0.86 {
		t.Fatalf("rebuilt waveform At = %g, %v", v, err)
	}
	if res.Stats.Points != 3 || res.Stats.CriticalNanos != 123456 {
		t.Fatalf("stats drifted: %+v", res.Stats)
	}
	var buf bytes.Buffer
	if err := Encode(&buf, FromResult(res)); err != nil {
		t.Fatal(err)
	}
	if !jsonEqual(t, golden, buf.Bytes()) {
		t.Fatalf("round trip drifted from golden:\n got: %s\nwant: %s", buf.Bytes(), golden)
	}
}

// TestStatsRoundTripCoversEveryField uses reflection to guarantee no Stats
// field is silently dropped on the wire: a struct with every field set to a
// distinct nonzero value must survive its JSON encoding unchanged.
func TestStatsRoundTripCoversEveryField(t *testing.T) {
	var s wavepipe.Stats
	v := reflect.ValueOf(&s).Elem()
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		switch f.Kind() {
		case reflect.Int, reflect.Int64:
			f.SetInt(int64(i + 1))
		case reflect.Bool:
			f.SetBool(true)
		default:
			t.Fatalf("unhandled Stats field kind %v — extend the wire schema", f.Kind())
		}
	}
	raw, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var got wavepipe.Stats
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, s) {
		t.Fatalf("stats dropped on the wire:\n got %+v\nwant %+v", got, s)
	}
}

func TestUnknownFieldRejected(t *testing.T) {
	doc := `{"schemaVersion":1,"deck":"x","bogus":true}`
	if _, err := DecodeJobRequest(strings.NewReader(doc)); err == nil {
		t.Fatal("unknown top-level field accepted")
	}
	// Retired options (PR 14) are unknown fields like any other: a peer
	// still sending them is told so instead of having them dropped.
	for _, opt := range []string{`"bogus":2`, `"aggressiveGrowth":true`, `"loadMode":"colored"`} {
		doc = `{"schemaVersion":1,"deck":"x","options":{"tstop":1,` + opt + `}}`
		if _, err := DecodeJobRequest(strings.NewReader(doc)); err == nil {
			t.Fatalf("option field %s accepted", opt)
		}
	}
	doc = `{"schemaVersion":1,"deck":"x","options":{"tstop":1,"scheme":"finegrain"}}`
	req, err := DecodeJobRequest(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := req.Options.ToTranOptions(); err == nil {
		t.Fatal("retired scheme finegrain accepted")
	}
}

func TestVersionMismatchRejected(t *testing.T) {
	for _, doc := range []string{
		`{"schemaVersion":2,"deck":"x"}`,
		`{"deck":"x"}`, // missing version decodes as 0
	} {
		if _, err := DecodeJobRequest(strings.NewReader(doc)); err == nil {
			t.Fatalf("document %s accepted", doc)
		}
	}
}

func TestResultShapeValidation(t *testing.T) {
	bad := &Result{
		SchemaVersion: SchemaVersion,
		Signals:       []string{"a"},
		Times:         []float64{0, 1},
		Data:          [][]float64{{0}},
	}
	if _, err := bad.ToResult(); err == nil {
		t.Fatal("times/rows mismatch accepted")
	}
	bad = &Result{
		SchemaVersion: SchemaVersion,
		Signals:       []string{"a"},
		Times:         []float64{0, 0},
		Data:          [][]float64{{0}, {1}},
	}
	if _, err := bad.ToResult(); err == nil {
		t.Fatal("non-ascending times accepted")
	}
}
