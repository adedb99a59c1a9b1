// Package client is the HTTP implementation of wavepipe.Client: it speaks
// the versioned wire API that internal/server exposes, so swapping the
// in-process *wavepipe.Service for client.New("http://host:port") — or back
// — changes no calling code. Documents travel as wire JSON; waveform rows
// (Wait, Stream) always travel as wire's binary frames.
package client

import (
	"bufio"
	"bytes"
	"context"
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

// do sends a request. A non-empty accept asks for that media type and
// refuses a response of any other.
func (c *Client) do(ctx context.Context, method, path string, body io.Reader, accept string) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, body)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		defer resp.Body.Close()
		return nil, apiError(resp)
	}
	if ct := resp.Header.Get("Content-Type"); accept != "" && ct != accept {
		resp.Body.Close()
		return nil, fmt.Errorf("client: %s answered %q, want %s", path, ct, accept)
	}
	return resp, nil
}

// Submit sends the deck and options to the service's queue.
func (c *Client) Submit(ctx context.Context, spec wavepipe.JobSpec) (wavepipe.JobStatus, error) {
	var buf bytes.Buffer
	if err := wire.Encode(&buf, wire.FromJobSpec(spec)); err != nil {
		return wavepipe.JobStatus{}, err
	}
	resp, err := c.do(ctx, http.MethodPost, "/v1/jobs", &buf, "")
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
	resp, err := c.do(ctx, http.MethodGet, "/v1/jobs/"+id, nil, "")
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
	resp, err := c.do(ctx, http.MethodGet, "/v1/jobs/"+id+"/result", nil, wire.FrameContentType)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	wres, err := wire.ReadResultFrame(bufio.NewReaderSize(resp.Body, 64<<10))
	if err != nil {
		return nil, fmt.Errorf("client: job %s result: %w", id, err)
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
	resp, err := c.do(ctx, http.MethodGet, "/v1/jobs/"+id+"/stream", nil, wire.FrameContentType)
	if err != nil {
		return nil, err
	}
	br := bufio.NewReaderSize(resp.Body, 64<<10)
	// The first line is the JSON header; validate its version eagerly so a
	// schema mismatch fails the call, not the channel.
	line, err := br.ReadBytes('\n')
	if err != nil {
		resp.Body.Close()
		return nil, fmt.Errorf("client: stream header: %w", err)
	}
	h, err := wire.DecodeStreamHeader(line)
	if err != nil {
		resp.Body.Close()
		return nil, err
	}
	out := make(chan wavepipe.StreamPoint, 64)
	go func() {
		defer close(out)
		defer resp.Body.Close()
		for {
			// The stream ends at io.EOF, a frame cut short or one over the bound.
			pts, err := wire.ReadStreamFrame(br, len(h.Signals))
			if err != nil {
				return
			}
			for _, p := range pts {
				select {
				case out <- p:
				case <-ctx.Done():
					return
				}
			}
		}
	}()
	return out, nil
}

// Cancel stops a job (idempotent on terminal jobs).
func (c *Client) Cancel(ctx context.Context, id string) error {
	resp, err := c.do(ctx, http.MethodDelete, "/v1/jobs/"+id, nil, "")
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
