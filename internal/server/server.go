// Package server is the HTTP adapter of the simulation service: a thin,
// schema-checked layer that exposes any wavepipe.Client — normally the
// in-process *wavepipe.Service — over the versioned wire JSON API that
// wavepipe/client speaks. All simulation logic (queueing, preemption,
// artifact caching) lives behind the Client interface; this package only
// translates HTTP ⇄ wire.
//
// Endpoints:
//
//	POST   /v1/jobs             submit a deck (wire.JobRequest → wire.JobStatus)
//	GET    /v1/jobs/{id}        snapshot a job (wire.JobStatus)
//	GET    /v1/jobs/{id}/result block until terminal, return wire.Result
//	GET    /v1/jobs/{id}/stream NDJSON: one header line, then accepted rows
//	DELETE /v1/jobs/{id}        cancel (idempotent)
//	GET    /metrics             Prometheus text (engine + service rows)
//
// With "Accept: application/x-wavepipe-frame" /result is its JSON head line
// then its rows as wire frames, and /stream the header line then one frame per
// batch of waiting rows.
package server

import (
	"errors"
	"io"
	"net/http"
	"strings"

	"wavepipe"
	"wavepipe/wire"
)

// Config assembles a handler.
type Config struct {
	// Client executes the jobs (required). Passing an HTTP client here
	// makes the server a relay; passing *wavepipe.Service serves locally.
	Client wavepipe.Client
	// Metrics, when non-nil, serves GET /metrics by writing Prometheus
	// text (normally (*wavepipe.Service).WritePrometheus).
	Metrics func(w io.Writer) error
}

// maxRequestBytes bounds the body of POST /v1/jobs: a deck and its options.
const maxRequestBytes = 64 << 20

// New returns the HTTP handler for the service API.
func New(cfg Config) http.Handler { return newHandler(cfg, maxRequestBytes) }

func newHandler(cfg Config, maxBody int64) http.Handler {
	h := &handler{cfg: cfg, maxBody: maxBody}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", h.submit)
	mux.HandleFunc("GET /v1/jobs/{id}", h.status)
	mux.HandleFunc("GET /v1/jobs/{id}/result", h.result)
	mux.HandleFunc("GET /v1/jobs/{id}/stream", h.stream)
	mux.HandleFunc("DELETE /v1/jobs/{id}", h.cancel)
	mux.HandleFunc("GET /metrics", h.metrics)
	return mux
}

type handler struct {
	cfg     Config
	maxBody int64
}

// fail writes the uniform wire error body with the status the error maps
// to: unknown job → 404, admission rejection → 429, options the service
// cannot run as a job → 422, a body over the bound → 413, everything else the
// caller's default (400 for request shaping, 500 for execution).
func fail(w http.ResponseWriter, err error, fallback int) {
	code := fallback
	var tooLarge *http.MaxBytesError
	switch {
	case errors.As(err, &tooLarge):
		code = http.StatusRequestEntityTooLarge
	case errors.Is(err, wavepipe.ErrUnknownJob):
		code = http.StatusNotFound
	case errors.Is(err, wavepipe.ErrQueueFull):
		code = http.StatusTooManyRequests
	case errors.Is(err, wavepipe.ErrJobUnsupported):
		code = http.StatusUnprocessableEntity
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = wire.Encode(w, wire.Error{SchemaVersion: wire.SchemaVersion, Error: err.Error()})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = wire.Encode(w, v)
}

func (h *handler) submit(w http.ResponseWriter, r *http.Request) {
	req, err := wire.DecodeJobRequest(http.MaxBytesReader(w, r.Body, h.maxBody))
	if err != nil {
		fail(w, err, http.StatusBadRequest)
		return
	}
	spec := wavepipe.JobSpec{Deck: req.Deck, Priority: req.Priority, Label: req.Label}
	if req.Options != nil {
		opts, oerr := req.Options.ToTranOptions()
		if oerr != nil {
			fail(w, oerr, http.StatusBadRequest)
			return
		}
		spec.Options = opts
	}
	st, err := h.cfg.Client.Submit(r.Context(), spec)
	if err != nil {
		fail(w, err, http.StatusBadRequest)
		return
	}
	writeJSON(w, http.StatusAccepted, wire.JobStatus{SchemaVersion: wire.SchemaVersion, JobStatus: st})
}

func (h *handler) status(w http.ResponseWriter, r *http.Request) {
	st, err := h.cfg.Client.Status(r.Context(), r.PathValue("id"))
	if err != nil {
		fail(w, err, http.StatusInternalServerError)
		return
	}
	writeJSON(w, http.StatusOK, wire.JobStatus{SchemaVersion: wire.SchemaVersion, JobStatus: st})
}

func (h *handler) result(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	res, err := h.cfg.Client.Wait(r.Context(), id)
	if err != nil && res == nil {
		// Pure failure with nothing salvaged (includes unknown IDs and a
		// client that went away mid-wait).
		fail(w, err, http.StatusInternalServerError)
		return
	}
	out := wire.FromResult(res)
	if out == nil {
		out = &wire.Result{SchemaVersion: wire.SchemaVersion}
	}
	out.SchemaVersion = wire.SchemaVersion
	if err != nil {
		out.Err = err.Error()
	}
	if !wantsFrames(r) {
		writeJSON(w, http.StatusOK, out)
		return
	}
	w.Header().Set("Content-Type", wire.FrameContentType)
	_ = wire.WriteResultFrame(w, out)
}

// wantsFrames reports whether the request accepts the binary row frames.
func wantsFrames(r *http.Request) bool {
	return strings.Contains(r.Header.Get("Accept"), wire.FrameContentType)
}

func (h *handler) stream(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	st, err := h.cfg.Client.Status(r.Context(), id)
	if err != nil {
		fail(w, err, http.StatusInternalServerError)
		return
	}
	ch, err := h.cfg.Client.Stream(r.Context(), id)
	if err != nil {
		fail(w, err, http.StatusInternalServerError)
		return
	}
	ct, frames := "application/x-ndjson", wantsFrames(r)
	if frames {
		ct = wire.FrameContentType
	}
	w.Header().Set("Content-Type", ct)
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	if wire.Encode(w, wire.StreamHeader{SchemaVersion: wire.SchemaVersion, Signals: st.Signals}) != nil {
		return
	}
	if flusher != nil {
		flusher.Flush()
	}
	// A frame carries the row in hand and the rows already waiting on ch:
	// this handler is ch's one receiver, so len(ch) of them arrive without
	// blocking.
	maxRows := wire.StreamFrameRows(len(st.Signals))
	var batch []wavepipe.StreamPoint
	var buf []byte
	for p := range ch {
		var err error
		if frames {
			batch = append(batch[:0], p)
			for len(batch) < maxRows && len(ch) > 0 {
				batch = append(batch, <-ch)
			}
			buf = wire.AppendStreamFrame(buf[:0], batch)
			_, err = w.Write(buf)
		} else {
			err = wire.Encode(w, p)
		}
		if err != nil {
			// Client went away: unblock the producer by draining.
			for range ch {
			}
			return
		}
		if flusher != nil {
			flusher.Flush()
		}
	}
}

func (h *handler) cancel(w http.ResponseWriter, r *http.Request) {
	if err := h.cfg.Client.Cancel(r.Context(), r.PathValue("id")); err != nil {
		fail(w, err, http.StatusInternalServerError)
		return
	}
	writeJSON(w, http.StatusOK, wire.Error{SchemaVersion: wire.SchemaVersion})
}

func (h *handler) metrics(w http.ResponseWriter, r *http.Request) {
	if h.cfg.Metrics == nil {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	_ = h.cfg.Metrics(w)
}
