package main

import (
	"bytes"
	"encoding/json"
	"slices"
	"testing"

	"wavepipe/internal/circuits"
)

func TestFindBench(t *testing.T) {
	for _, b := range circuits.Suite() {
		got, ok := findBench(b.Name)
		if !ok || got.Name != b.Name {
			t.Fatalf("findBench(%q) failed", b.Name)
		}
	}
	if _, ok := findBench("nope"); ok {
		t.Fatal("findBench invented a circuit")
	}
}

// TestJSONMetricsRecord decodes the record of one small circuit: exactly one
// element, carrying every key the record has always had, with a real run
// behind it.
func TestJSONMetricsRecord(t *testing.T) {
	var buf bytes.Buffer
	if err := jsonMetrics(&buf, "amp10M"); err != nil {
		t.Fatal(err)
	}
	var raw []map[string]json.RawMessage
	if err := json.Unmarshal(buf.Bytes(), &raw); err != nil {
		t.Fatalf("output is not a JSON array of objects: %v\n%s", err, buf.String())
	}
	if len(raw) != 1 {
		t.Fatalf("%d records for one circuit, want 1", len(raw))
	}
	keys := make([]string, 0, len(raw[0]))
	for k := range raw[0] {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	want := []string{"allocs_per_op", "circuit", "full_factorizations", "gomaxprocs", "nr_iters", "ns_per_op",
		"points", "refactorizations", "reused_factorizations", "scheme", "stages"}
	if !slices.Equal(keys, want) {
		t.Fatalf("record keys %v, want %v", keys, want)
	}
	var recs []benchMetrics
	if err := json.Unmarshal(buf.Bytes(), &recs); err != nil {
		t.Fatal(err)
	}
	r := recs[0]
	if r.Circuit != "amp10M" || r.Scheme != "serial" || r.Points <= 0 || r.FullFactorizations < 1 {
		t.Fatalf("record %+v: want amp10M, serial, points > 0, full_factorizations >= 1", r)
	}
}

func TestJSONMetricsUnknownCircuit(t *testing.T) {
	var buf bytes.Buffer
	if err := jsonMetrics(&buf, "nope"); err == nil {
		t.Fatal("an unknown circuit name was accepted")
	}
	if buf.Len() != 0 {
		t.Fatalf("wrote %q for an unknown circuit", buf.String())
	}
}
