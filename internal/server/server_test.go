package server_test

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"wavepipe"
	"wavepipe/client"
	"wavepipe/internal/server"
	"wavepipe/wire"
)

const rcDeck = `* rc lowpass
V1 in 0 PULSE(0 1 0 1n 1n 10n 20n)
R1 in out 1k
C1 out 0 1n
.tran 1n 40n
.end
`

const longDeck = `* long rc
V1 in 0 PULSE(0 1 0 1n 1n 10n 20n)
R1 in out 1k
C1 out 0 1n
.tran 0.1n 2000n 0 0.5n
.end
`

// endlessDeck cannot finish within any test timeout (a billion forced
// points), so a job canceled mid-stream is still running when the cancel
// lands, however fast a point solve is.
const endlessDeck = `* endless rc
V1 in 0 DC 1
R1 in out 1k
C1 out 0 1n
.tran 0.1n 100000000n 0 0.5n UIC
.end
`

// newStack spins up service → HTTP server → HTTP client and returns the
// client plus the underlying service (for metrics assertions).
func newStack(t *testing.T) (*client.Client, *wavepipe.Service, *httptest.Server) {
	t.Helper()
	svc, err := wavepipe.NewService(wavepipe.ServiceConfig{Cores: 2})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(server.New(server.Config{Client: svc, Metrics: svc.WritePrometheus}))
	c, err := client.New(ts.URL, ts.Client())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		c.Close()
		ts.Close()
		svc.Close()
	})
	return c, svc, ts
}

// TestHTTPRoundTrip drives the full Client interface over the wire: the
// HTTP client behaves exactly like the in-process service — same deck, same
// points, cache hit on resubmission.
func TestHTTPRoundTrip(t *testing.T) {
	c, _, _ := newStack(t)
	ctx := context.Background()

	st, err := c.Submit(ctx, wavepipe.JobSpec{Deck: rcDeck, Label: "over-http"})
	if err != nil {
		t.Fatal(err)
	}
	if st.ID == "" || st.CacheHit {
		t.Fatalf("first submit: id=%q cacheHit=%v", st.ID, st.CacheHit)
	}
	if st.Label != "over-http" {
		t.Fatalf("label lost on the wire: %q", st.Label)
	}

	ch, err := c.Stream(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	streamed := 0
	lastT := -1.0
	for p := range ch {
		if p.T <= lastT {
			t.Fatalf("stream out of order: %g after %g", p.T, lastT)
		}
		lastT = p.T
		streamed++
	}

	res, err := c.Wait(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if res.W.Len() != streamed {
		t.Fatalf("streamed %d rows, result has %d", streamed, res.W.Len())
	}
	if _, aerr := res.W.At("out", 20e-9); aerr != nil {
		t.Fatalf("rebuilt waveform unusable: %v", aerr)
	}
	// Stats.Points counts accepted steps; the waveform also holds t=0.
	if res.Stats.Points == 0 || res.W.Len() < res.Stats.Points {
		t.Fatalf("stats says %d points, waveform has %d", res.Stats.Points, res.W.Len())
	}

	st2, err := c.Submit(ctx, wavepipe.JobSpec{Deck: rcDeck})
	if err != nil {
		t.Fatal(err)
	}
	if !st2.CacheHit {
		t.Fatal("repeat deck over HTTP missed the artifact cache")
	}
	if _, err := c.Wait(ctx, st2.ID); err != nil {
		t.Fatal(err)
	}
	got, err := c.Status(ctx, st2.ID)
	if err != nil || got.State != wavepipe.JobDone {
		t.Fatalf("state=%v err=%v", got.State, err)
	}
}

// TestHTTPResultMatchesLocal: the result that crossed the wire is
// numerically identical to a local run of the same deck.
func TestHTTPResultMatchesLocal(t *testing.T) {
	c, _, _ := newStack(t)
	st, err := c.Submit(context.Background(), wavepipe.JobSpec{Deck: rcDeck})
	if err != nil {
		t.Fatal(err)
	}
	remote, err := c.Wait(context.Background(), st.ID)
	if err != nil {
		t.Fatal(err)
	}
	d, err := wavepipe.ParseDeck(rcDeck)
	if err != nil {
		t.Fatal(err)
	}
	local, err := wavepipe.RunDeckCtx(context.Background(), d, wavepipe.TranOptions{CoreBudget: 1})
	if err != nil {
		t.Fatal(err)
	}
	if remote.W.Len() != local.W.Len() {
		t.Fatalf("remote %d points, local %d", remote.W.Len(), local.W.Len())
	}
	for k := range local.W.Times {
		if remote.W.Times[k] != local.W.Times[k] {
			t.Fatalf("time %d differs", k)
		}
		for j := range local.W.Names {
			if remote.W.Data[k][j] != local.W.Data[k][j] {
				t.Fatalf("sample %d/%s differs: %g vs %g", k, local.W.Names[j],
					remote.W.Data[k][j], local.W.Data[k][j])
			}
		}
	}
}

// TestHTTPCancelMidStream: canceling over HTTP closes the live stream and
// the job ends canceled.
func TestHTTPCancelMidStream(t *testing.T) {
	c, _, _ := newStack(t)
	ctx := context.Background()
	st, err := c.Submit(ctx, wavepipe.JobSpec{Deck: endlessDeck})
	if err != nil {
		t.Fatal(err)
	}
	ch, err := c.Stream(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	seen := 0
	for range ch {
		seen++
		if seen == 10 {
			if err := c.Cancel(ctx, st.ID); err != nil {
				t.Fatal(err)
			}
		}
	}
	if seen < 10 {
		t.Fatalf("stream closed after %d rows, before cancel", seen)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		got, serr := c.Status(ctx, st.ID)
		if serr != nil {
			t.Fatal(serr)
		}
		if got.State.Terminal() {
			if got.State != wavepipe.JobCanceled {
				t.Fatalf("state = %v, want canceled", got.State)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job never reached a terminal state after cancel")
		}
		time.Sleep(5 * time.Millisecond)
	}
	// A canceled job still serves its partial result, with the error noted.
	res, err := c.Wait(ctx, st.ID)
	if err == nil {
		t.Fatal("canceled job returned no error from Wait")
	}
	if res == nil || res.W.Len() < seen {
		t.Fatalf("partial result lost: %v", res)
	}
}

// TestHTTPErrors: unknown IDs map back to ErrUnknownJob across the wire;
// malformed submissions are 400s.
func TestHTTPErrors(t *testing.T) {
	c, _, _ := newStack(t)
	ctx := context.Background()
	if _, err := c.Status(ctx, "j999999"); !errors.Is(err, wavepipe.ErrUnknownJob) {
		t.Fatalf("err = %v, want ErrUnknownJob", err)
	}
	if err := c.Cancel(ctx, "j999999"); !errors.Is(err, wavepipe.ErrUnknownJob) {
		t.Fatalf("cancel err = %v, want ErrUnknownJob", err)
	}
	if _, err := c.Submit(ctx, wavepipe.JobSpec{Deck: ""}); err == nil {
		t.Fatal("empty deck accepted")
	}
	if _, err := c.Submit(ctx, wavepipe.JobSpec{Deck: "not a deck"}); err == nil {
		t.Fatal("garbage deck accepted")
	}
}

// TestHTTPRetiredOptionsRefused: a peer still sending a retired option,
// scheme or pipeline width gets a 400 at submission, not a job that silently
// runs without it.
func TestHTTPRetiredOptionsRefused(t *testing.T) {
	_, svc, ts := newStack(t)
	for _, opts := range []string{`{"scheme":"finegrain"}`, `{"loadMode":"colored"}`, `{"aggressiveGrowth":true}`, `{"bypassTol":1e-3}`, `{"deviceBypass":true}`, `{"deltaRatio":0.2}`, `{"scheme":"backward","threads":3}`, `{"snapshotEvery":64}`, `{"initStep":1e-12}`, `{"reduceKeep":["n5"]}`, `{"coarseSteps":12}`, `{"coarseTolScale":6}`} {
		body := `{"schemaVersion":1,"deck":` + strconv.Quote(rcDeck) + `,"options":` + opts + `}`
		resp, err := ts.Client().Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("options %s: status = %d, want 400", opts, resp.StatusCode)
		}
	}
	if ids := svc.Jobs(); len(ids) != 0 {
		t.Fatalf("refused jobs were admitted: %v", ids)
	}
}

// TestHTTPNegativeDeadlineRefused: a job's deadline travels as
// options.deadline, and a negative one is refused at submission with a 400.
func TestHTTPNegativeDeadlineRefused(t *testing.T) {
	_, svc, ts := newStack(t)
	body := `{"schemaVersion":1,"deck":` + strconv.Quote(rcDeck) + `,"options":{"deadline":"-1s"}}`
	resp, err := ts.Client().Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	msg, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(wire.DecodeError(msg), "Deadline") {
		t.Fatalf("status = %d, body %s; want 400 naming the Deadline", resp.StatusCode, msg)
	}
	if ids := svc.Jobs(); len(ids) != 0 {
		t.Fatalf("refused job was admitted: %v", ids)
	}
}

// TestHTTPOversizedBodyRefused: a body over the bound is answered 413 with the
// limit named in the wire error — not cut short and reported as a JSON syntax
// error — and a body just under it is still admitted.
func TestHTTPOversizedBodyRefused(t *testing.T) {
	svc, err := wavepipe.NewService(wavepipe.ServiceConfig{Cores: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	body := `{"schemaVersion":1,"deck":` + strconv.Quote(rcDeck) + `}`
	post := func(limit int64) *http.Response {
		ts := httptest.NewServer(server.NewWithBodyLimit(server.Config{Client: svc}, limit))
		defer ts.Close()
		resp, err := ts.Client().Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	resp := post(int64(len(body)) - 1)
	msg, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge || !strings.Contains(string(msg), "too large") {
		t.Fatalf("oversized body: status = %d, body %s; want 413 naming the limit", resp.StatusCode, msg)
	}
	if ids := svc.Jobs(); len(ids) != 0 {
		t.Fatalf("refused job was admitted: %v", ids)
	}
	resp = post(int64(len(body)))
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("body at the bound: status = %d, want 202", resp.StatusCode)
	}
}

// TestHTTPWindowedJobRefused: a job the service cannot run is refused at
// submission with a 4xx that maps back to the typed error — it never becomes
// a failed job.
func TestHTTPWindowedJobRefused(t *testing.T) {
	c, svc, ts := newStack(t)
	spec := wavepipe.JobSpec{Deck: rcDeck, Options: wavepipe.TranOptions{Windows: 4, CoreBudget: 2}}
	if _, err := c.Submit(context.Background(), spec); !errors.Is(err, wavepipe.ErrJobUnsupported) {
		t.Fatalf("err = %v, want ErrJobUnsupported", err)
	}
	body := `{"schemaVersion":1,"deck":` + strconv.Quote(rcDeck) + `,"options":{"windows":4,"coreBudget":2}}`
	resp, err := ts.Client().Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("status = %d, want 422", resp.StatusCode)
	}
	if ids := svc.Jobs(); len(ids) != 0 {
		t.Fatalf("refused job was admitted: %v", ids)
	}
}

// TestHTTPMetrics: /metrics serves the engine rows and the service rows,
// and the artifact-cache hit counter moves when a deck repeats.
func TestHTTPMetrics(t *testing.T) {
	c, _, ts := newStack(t)
	ctx := context.Background()
	for i := 0; i < 2; i++ {
		st, err := c.Submit(ctx, wavepipe.JobSpec{Deck: rcDeck})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Wait(ctx, st.ID); err != nil {
			t.Fatal(err)
		}
	}
	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)
	for _, want := range []string{
		"wavepipe_points_total",
		"wavesimd_artifact_cache_hits_total 1",
		"wavesimd_artifact_cache_builds_total 1",
		"wavesimd_jobs_submitted_total 2",
		"wavesimd_cores_total 2",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("metrics missing %q:\n%s", want, body)
		}
	}
}

// TestHTTPForgottenJobIs404: a finished job the service has forgotten (past
// MaxQueued + Cores finished after it) is 404 on every endpoint, and the
// client maps it back to ErrUnknownJob.
func TestHTTPForgottenJobIs404(t *testing.T) {
	svc, err := wavepipe.NewService(wavepipe.ServiceConfig{Cores: 1, MaxQueued: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(server.New(server.Config{Client: svc}))
	t.Cleanup(func() {
		ts.Close()
		svc.Close()
	})
	c, err := client.New(ts.URL, ts.Client())
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	var ids []string
	for k := 0; k < 3; k++ {
		st, err := c.Submit(ctx, wavepipe.JobSpec{Deck: rcDeck})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Wait(ctx, st.ID); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, st.ID)
	}
	for _, path := range []string{"", "/result", "/stream"} {
		resp, err := ts.Client().Get(ts.URL + "/v1/jobs/" + ids[0] + path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound || !strings.Contains(string(body), "finished and evicted") {
			t.Fatalf("GET %s%s: %s %s; want 404, finished and evicted", ids[0], path, resp.Status, body)
		}
	}
	if _, err := c.Wait(ctx, ids[0]); !errors.Is(err, wavepipe.ErrUnknownJob) {
		t.Fatalf("Wait of a forgotten job: %v, want ErrUnknownJob", err)
	}
	if _, err := c.Status(ctx, ids[1]); err != nil {
		t.Fatalf("a job within the window: %v", err)
	}
}
