package wire

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

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

// TestJobRequestGoldenRoundTrip: golden JSON → wire → JobSpec → wire → JSON
// reproduces the document exactly. The golden file pins the schema: any
// rename or retype of a wire field breaks this test. The job's deadline
// travels as options.deadline.
func TestJobRequestGoldenRoundTrip(t *testing.T) {
	golden := readGolden(t, "job_request.golden.json")
	req, err := DecodeJobRequest(bytes.NewReader(golden))
	if err != nil {
		t.Fatal(err)
	}
	spec, err := req.ToJobSpec()
	if err != nil {
		t.Fatal(err)
	}
	if spec.Options.Scheme != wavepipe.Forward || spec.Options.Method != wavepipe.Trapezoidal {
		t.Fatalf("enum decode: scheme=%v method=%v", spec.Options.Scheme, spec.Options.Method)
	}
	if spec.Deadline != 30*time.Second {
		t.Fatalf("deadline = %v, want 30s", spec.Deadline)
	}
	var buf bytes.Buffer
	if err := Encode(&buf, FromJobSpec(spec)); err != nil {
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

// TestMethodRoundTrip: a default job goes out with no method field, every
// named method comes back as itself, and "be", which names no method, is
// refused rather than run as the default.
func TestMethodRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := Encode(&buf, FromJobSpec(wavepipe.JobSpec{Deck: "x"})); err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(buf.Bytes(), []byte(`"method"`)) {
		t.Fatalf("a default job encodes a method: %s", buf.Bytes())
	}
	for _, name := range wavepipe.MethodNames() {
		m, err := wavepipe.ParseMethod(name)
		if err != nil {
			t.Fatal(err)
		}
		req := FromJobSpec(wavepipe.JobSpec{Deck: "x", Options: wavepipe.TranOptions{Method: m}})
		spec, err := req.ToJobSpec()
		if err != nil || spec.Options.Method != m {
			t.Fatalf("%s: round trip gave %v, %v", name, spec.Options.Method, err)
		}
	}
	for _, name := range []string{"be", "BE"} {
		doc := `{"schemaVersion":1,"deck":"x","options":{"tstop":1,"method":"` + name + `"}}`
		req, err := DecodeJobRequest(strings.NewReader(doc))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := req.ToJobSpec(); err == nil || !strings.Contains(err.Error(), "(gear2, trap)") {
			t.Fatalf("method %q: %v, want a refusal naming gear2 and trap", name, err)
		}
	}
}

// Every scheme's name parses back to the scheme, travels the wire under it
// (the default, Serial, as no field), and a name that is no scheme's is
// refused with the list of names.
func TestSchemeRoundTrip(t *testing.T) {
	names := wavepipe.SchemeNames()
	if len(names) != 3 || names[0] != wavepipe.Serial.String() {
		t.Fatalf("scheme names %v, want serial first of three", names)
	}
	for _, name := range names {
		sc, err := wavepipe.ParseScheme(name)
		if err != nil || sc.String() != name {
			t.Fatalf("%s: parsed to %v, %v", name, sc, err)
		}
		var buf bytes.Buffer
		if err := Encode(&buf, FromJobSpec(wavepipe.JobSpec{Deck: "x", Options: wavepipe.TranOptions{Scheme: sc}})); err != nil {
			t.Fatal(err)
		}
		if hasField := bytes.Contains(buf.Bytes(), []byte(`"scheme"`)); hasField != (sc != wavepipe.Serial) {
			t.Fatalf("%s: encoded as %s", name, buf.Bytes())
		}
		req, err := DecodeJobRequest(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if spec, err := req.ToJobSpec(); err != nil || spec.Options.Scheme != sc {
			t.Fatalf("%s: round trip gave %v, %v", name, spec.Options.Scheme, err)
		}
	}
	if sc, err := wavepipe.ParseScheme(""); err != nil || sc != wavepipe.Serial {
		t.Fatalf(`ParseScheme("") = %v, %v, want serial`, sc, err)
	}
	for _, name := range []string{"Backward", "unknown", "pipelined", "combined"} {
		if _, err := wavepipe.ParseScheme(name); err == nil || !strings.Contains(err.Error(), "(serial, backward, forward)") {
			t.Fatalf("scheme %q: %v, want a refusal naming serial, backward and forward", name, err)
		}
	}
}

func TestUnknownFieldRejected(t *testing.T) {
	doc := `{"schemaVersion":1,"deck":"x","bogus":true}`
	if _, err := DecodeJobRequest(strings.NewReader(doc)); err == nil {
		t.Fatal("unknown top-level field accepted")
	}
	// Retired options (PR 14) are unknown fields like any other: a peer
	// still sending them is told so instead of having them dropped.
	for _, opt := range []string{`"bogus":2`, `"aggressiveGrowth":true`, `"loadMode":"colored"`, `"snapshotEvery":64`, `"initStep":1e-12`, `"reduceKeep":["n5"]`, `"coarseSteps":12`, `"coarseTolScale":6`} {
		doc = `{"schemaVersion":1,"deck":"x","options":{"tstop":1,` + opt + `}}`
		if _, err := DecodeJobRequest(strings.NewReader(doc)); err == nil {
			t.Fatalf("option field %s accepted", opt)
		}
	}
	for _, scheme := range []string{"finegrain", "combined"} {
		doc = `{"schemaVersion":1,"deck":"x","options":{"tstop":1,"scheme":"` + scheme + `"}}`
		req, err := DecodeJobRequest(strings.NewReader(doc))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := req.ToJobSpec(); err == nil {
			t.Fatalf("retired scheme %s accepted", scheme)
		}
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
