package wire

import (
	"bufio"
	"bytes"
	"io"
	"os"
	"path/filepath"
	"testing"

	"wavepipe"
)

// FuzzDecodeJobRequest drives the job-request decoder with arbitrary bytes,
// then converts any options it accepts the way the HTTP server does. The
// documents come off the network, so the contract is an error for anything
// malformed — never a panic.
func FuzzDecodeJobRequest(f *testing.F) {
	goldens, err := filepath.Glob(filepath.Join("testdata", "*.golden.json"))
	if err != nil || len(goldens) == 0 {
		f.Fatalf("no seed documents under testdata: %v", err)
	}
	for _, path := range goldens {
		doc, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(doc)
	}
	f.Add([]byte(`{"schemaVersion":1,"deck":"x","options":{"deadline":"1h","scheme":"combined"}}`))
	f.Add([]byte(`{"schemaVersion":1,"options":{"deadline":"-5s","method":"nope"}}`))
	f.Add([]byte(`{}`))
	f.Add([]byte(`null`))

	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := DecodeJobRequest(bytes.NewReader(data))
		if err != nil {
			return
		}
		if req == nil {
			t.Fatal("DecodeJobRequest returned neither a request nor an error")
		}
		if req.Options != nil {
			_, _ = req.Options.ToTranOptions()
		}
	})
}

// FuzzReadStreamFrame drives the stream-frame reader with arbitrary bytes
// after a header naming 0–3 signals. The frames read re-encode to exactly
// the bytes they were read from, and only a stream that ends on a frame
// boundary ends with io.EOF.
func FuzzReadStreamFrame(f *testing.F) {
	pts := []wavepipe.StreamPoint{{T: 0, Values: []float64{1, 2}}, {T: 1, Values: []float64{3, 4}}}
	f.Add(uint8(2), AppendStreamFrame(AppendStreamFrame(nil, pts), pts[:1]))
	f.Add(uint8(2), AppendStreamFrame(nil, pts)[:13])
	f.Add(uint8(0), AppendStreamFrame(nil, []wavepipe.StreamPoint{{T: 3}}))
	f.Add(uint8(1), []byte{0xff, 0xff, 0xff, 0xff})
	f.Add(uint8(3), []byte{})

	f.Fuzz(func(t *testing.T, colsByte uint8, data []byte) {
		cols := int(colsByte % 4)
		br := bufio.NewReaderSize(bytes.NewReader(data), 16)
		var re []byte
		for {
			pts, err := ReadStreamFrame(br, cols)
			if err != nil {
				if err == io.EOF && !bytes.Equal(re, data) {
					t.Fatalf("io.EOF after %d of %d bytes", len(re), len(data))
				}
				if !bytes.HasPrefix(data, re) {
					t.Fatal("frames read do not re-encode to the bytes they came from")
				}
				return
			}
			for _, p := range pts {
				if len(p.Values) != cols {
					t.Fatalf("point has %d values, header named %d", len(p.Values), cols)
				}
			}
			re = AppendStreamFrame(re, pts)
		}
	})
}
