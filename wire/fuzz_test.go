package wire

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
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
