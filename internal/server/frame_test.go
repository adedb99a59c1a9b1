package server_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"wavepipe"
	"wavepipe/client"
	"wavepipe/wire"
)

// get fetches path raw, with the frame Accept header when frames is set, and
// returns the body after checking the status and content type.
func get(t *testing.T, ts *httptest.Server, path string, frames bool) []byte {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, ts.URL+path, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := "application/json"
	if frames {
		req.Header.Set("Accept", wire.FrameContentType)
		want = wire.FrameContentType
	} else if strings.HasSuffix(path, "/stream") {
		want = "application/x-ndjson"
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || resp.Header.Get("Content-Type") != want {
		t.Fatalf("GET %s: %s, %q; want 200, %q", path, resp.Status, resp.Header.Get("Content-Type"), want)
	}
	return body
}

// streamRows splits a stream body into its header and rows: NDJSON lines, or
// stream frames.
func streamRows(t *testing.T, body []byte, frames bool) (*wire.StreamHeader, []wavepipe.StreamPoint) {
	t.Helper()
	br := bufio.NewReader(bytes.NewReader(body))
	line, err := br.ReadBytes('\n')
	if err != nil {
		t.Fatal(err)
	}
	h, err := wire.DecodeStreamHeader(line)
	if err != nil {
		t.Fatal(err)
	}
	var rows []wavepipe.StreamPoint
	for {
		if frames {
			pts, err := wire.ReadStreamFrame(br, len(h.Signals))
			if err == io.EOF {
				return h, rows
			}
			if err != nil {
				t.Fatal(err)
			}
			rows = append(rows, pts...)
			continue
		}
		line, err := br.ReadBytes('\n')
		if err == io.EOF && len(line) == 0 {
			return h, rows
		}
		var p wavepipe.StreamPoint
		if err := json.Unmarshal(line, &p); err != nil {
			t.Fatalf("NDJSON row %q: %v", line, err)
		}
		rows = append(rows, p)
	}
}

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

// sameRows checks that stream rows are the result's rows, bit for bit.
func sameRows(t *testing.T, rows []wavepipe.StreamPoint, r *wire.Result) {
	t.Helper()
	if len(rows) != len(r.Times) {
		t.Fatalf("%d stream rows, result has %d", len(rows), len(r.Times))
	}
	for k, p := range rows {
		if !sameBits([]float64{p.T}, r.Times[k:k+1]) || !sameBits(p.Values, r.Data[k]) {
			t.Fatalf("row %d: stream %v at %g, result %v at %g", k, p.Values, p.T, r.Data[k], r.Times[k])
		}
	}
}

// TestHTTPFrameMatchesJSON: one job's /result and /stream fetched with and
// without the frame Accept header decode to the same rows, bit for bit, and
// the same head — for a finished job and for a canceled one with an error.
func TestHTTPFrameMatchesJSON(t *testing.T) {
	c, _, ts := newStack(t)
	ctx := context.Background()
	done, err := c.Submit(ctx, wavepipe.JobSpec{Deck: rcDeck})
	if err != nil {
		t.Fatal(err)
	}
	canceled, err := c.Submit(ctx, wavepipe.JobSpec{Deck: endlessDeck})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Cancel(ctx, canceled.ID); err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{done.ID, canceled.ID} {
		base := "/v1/jobs/" + id
		js, err := wire.DecodeResult(bytes.NewReader(get(t, ts, base+"/result", false)))
		if err != nil {
			t.Fatal(err)
		}
		fr, err := wire.ReadResultFrame(bufio.NewReader(bytes.NewReader(get(t, ts, base+"/result", true))))
		if err != nil {
			t.Fatal(err)
		}
		if (id == canceled.ID) != (fr.Err != "") {
			t.Fatalf("job %s: error %q", id, fr.Err)
		}
		if len(fr.Times) == 0 && id == done.ID {
			t.Fatal("finished job has no rows")
		}
		if !sameBits(fr.FinalX, js.FinalX) || fr.Stats != js.Stats || fr.Err != js.Err || fr.SchemaVersion != js.SchemaVersion ||
			!reflect.DeepEqual(fr.Signals, js.Signals) || !reflect.DeepEqual(fr.Index, js.Index) {
			t.Fatalf("job %s: frame head %+v, JSON %+v", id, fr, js)
		}
		for k := range js.Data {
			if !sameBits(fr.Data[k], js.Data[k]) {
				t.Fatalf("job %s row %d: frame %v, JSON %v", id, k, fr.Data[k], js.Data[k])
			}
		}
		if !sameBits(fr.Times, js.Times) || len(fr.Data) != len(js.Data) {
			t.Fatalf("job %s: frame has %d rows, JSON %d", id, len(fr.Times), len(js.Times))
		}
		for _, frames := range []bool{false, true} {
			h, rows := streamRows(t, get(t, ts, base+"/stream", frames), frames)
			if !reflect.DeepEqual(h.Signals, js.Signals) {
				t.Fatalf("job %s: stream signals %v, result %v", id, h.Signals, js.Signals)
			}
			sameRows(t, rows, js)
		}
	}
}

// TestHTTPLiveFrameStreamIsTheResult: rows streamed live through the client,
// batched however the handler found them, are the Wait result's rows bit for
// bit, once each and in order.
func TestHTTPLiveFrameStreamIsTheResult(t *testing.T) {
	c, _, _ := newStack(t)
	ctx := context.Background()
	st, err := c.Submit(ctx, wavepipe.JobSpec{Deck: longDeck})
	if err != nil {
		t.Fatal(err)
	}
	ch, err := c.Stream(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	var rows []wavepipe.StreamPoint
	for p := range ch {
		rows = append(rows, p)
	}
	res, err := c.Wait(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	sameRows(t, rows, wire.FromResult(res))
}

// TestClientRefusesJSONRows: a server that ignores the frame Accept header
// is an error at the client, not rows misread.
func TestClientRefusesJSONRows(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = wire.Encode(w, wire.Result{SchemaVersion: wire.SchemaVersion})
	}))
	defer ts.Close()
	c, err := client.New(ts.URL, ts.Client())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Wait(context.Background(), "j000001"); err == nil {
		t.Fatal("JSON result accepted as a frame")
	}
	if _, err := c.Stream(context.Background(), "j000001"); err == nil {
		t.Fatal("JSON stream accepted as frames")
	}
}
