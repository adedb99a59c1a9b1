// Package client is the HTTP implementation of wavepipe.Client: it speaks
// the versioned wire JSON API that internal/server exposes, so swapping the
// in-process *wavepipe.Service for client.New("http://host:port") — or back
// — changes no calling code.
package client

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"

	"wavepipe"
	"wavepipe/wire"
)

// Client talks to a wavesimd instance. It is safe for concurrent use.
type Client struct {
	base string
	hc   *http.Client
}

// New returns a client for the service at baseURL (e.g.
// "http://localhost:8380"). httpClient may be nil for http.DefaultClient —
// pass a custom one to set transport-level timeouts (but leave
// http.Client.Timeout zero: Wait and Stream hold their connection for the
// life of the job; bound them per call with a context instead).
func New(baseURL string, httpClient *http.Client) (*Client, error) {
	base := strings.TrimRight(baseURL, "/")
	if !strings.HasPrefix(base, "http://") && !strings.HasPrefix(base, "https://") {
		return nil, fmt.Errorf("client: base URL %q must be http(s)", baseURL)
	}
	if httpClient == nil {
		httpClient = http.DefaultClient
	}
	return &Client{base: base, hc: httpClient}, nil
}

// apiError converts a non-2xx response into an error, restoring the typed
// sentinels the status codes encode so errors.Is works across the wire.
func apiError(resp *http.Response) error {
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	msg := strings.TrimSpace(string(body))
	if e := wire.DecodeError(body); e != "" {
		msg = e
	}
	switch resp.StatusCode {
	case http.StatusNotFound:
		return fmt.Errorf("%w: %s", wavepipe.ErrUnknownJob, msg)
	case http.StatusTooManyRequests:
		return fmt.Errorf("%w: %s", wavepipe.ErrQueueFull, msg)
	case http.StatusUnprocessableEntity:
		return fmt.Errorf("%w: %s", wavepipe.ErrJobUnsupported, msg)
	default:
		return fmt.Errorf("client: %s: %s", resp.Status, msg)
	}
}

func (c *Client) do(ctx context.Context, method, path string, body io.Reader) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, body)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		defer resp.Body.Close()
		return nil, apiError(resp)
	}
	return resp, nil
}

// Submit sends the deck and options to the service's queue.
func (c *Client) Submit(ctx context.Context, spec wavepipe.JobSpec) (wavepipe.JobStatus, error) {
	opts := wire.FromTranOptions(spec.Options)
	var buf bytes.Buffer
	if err := wire.Encode(&buf, wire.JobRequest{
		SchemaVersion: wire.SchemaVersion,
		Deck:          spec.Deck,
		Options:       &opts,
		Priority:      spec.Priority,
		Label:         spec.Label,
	}); err != nil {
		return wavepipe.JobStatus{}, err
	}
	resp, err := c.do(ctx, http.MethodPost, "/v1/jobs", &buf)
	if err != nil {
		return wavepipe.JobStatus{}, err
	}
	defer resp.Body.Close()
	st, err := wire.DecodeJobStatus(resp.Body)
	if err != nil {
		return wavepipe.JobStatus{}, err
	}
	return st.JobStatus, nil
}

// Status snapshots a job.
func (c *Client) Status(ctx context.Context, id string) (wavepipe.JobStatus, error) {
	resp, err := c.do(ctx, http.MethodGet, "/v1/jobs/"+id, nil)
	if err != nil {
		return wavepipe.JobStatus{}, err
	}
	defer resp.Body.Close()
	st, err := wire.DecodeJobStatus(resp.Body)
	if err != nil {
		return wavepipe.JobStatus{}, err
	}
	return st.JobStatus, nil
}

// Wait blocks until the job is terminal and returns its Result. Typed
// simulation errors do not cross the wire: a failed job returns the partial
// Result (when any) with a plain error carrying the server's message.
func (c *Client) Wait(ctx context.Context, id string) (*wavepipe.Result, error) {
	resp, err := c.do(ctx, http.MethodGet, "/v1/jobs/"+id+"/result", nil)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	wres, err := wire.DecodeResult(resp.Body)
	if err != nil {
		return nil, err
	}
	res, err := wres.ToResult()
	if err != nil {
		return nil, err
	}
	if wres.Err != "" {
		return res, fmt.Errorf("client: job %s: %s", id, wres.Err)
	}
	return res, nil
}

// Stream follows the job's accepted points: everything from t=0, then live
// rows. The channel closes when the job ends or ctx is done.
func (c *Client) Stream(ctx context.Context, id string) (<-chan wavepipe.StreamPoint, error) {
	resp, err := c.do(ctx, http.MethodGet, "/v1/jobs/"+id+"/stream", nil)
	if err != nil {
		return nil, err
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 16<<20)
	// The first NDJSON line is the header; validate its version eagerly so
	// a schema mismatch fails the call, not the channel.
	if !sc.Scan() {
		resp.Body.Close()
		if serr := sc.Err(); serr != nil {
			return nil, serr
		}
		return nil, fmt.Errorf("client: empty stream response")
	}
	if _, err := wire.DecodeStreamHeader(sc.Bytes()); err != nil {
		resp.Body.Close()
		return nil, err
	}
	out := make(chan wavepipe.StreamPoint, 64)
	go func() {
		defer close(out)
		defer resp.Body.Close()
		for sc.Scan() {
			var p wavepipe.StreamPoint
			if json.Unmarshal(sc.Bytes(), &p) != nil {
				return
			}
			select {
			case out <- p:
			case <-ctx.Done():
				return
			}
		}
	}()
	return out, nil
}

// Cancel stops a job (idempotent on terminal jobs).
func (c *Client) Cancel(ctx context.Context, id string) error {
	resp, err := c.do(ctx, http.MethodDelete, "/v1/jobs/"+id, nil)
	if err != nil {
		return err
	}
	resp.Body.Close()
	return nil
}

// Close releases idle connections.
func (c *Client) Close() error {
	c.hc.CloseIdleConnections()
	return nil
}

// compile-time check: the HTTP client is a wavepipe.Client.
var _ wavepipe.Client = (*Client)(nil)
