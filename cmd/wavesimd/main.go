// Command wavesimd runs the wavepipe simulation service: a long-running
// HTTP daemon that accepts SPICE decks as jobs, multiplexes concurrent
// simulations over one global core budget (priorities, fair share,
// preemption at accepted steps, resumed from state kept in memory), reuses
// compiled artifacts across repeat decks, and streams waveform rows as they
// are accepted.
//
// Endpoints (versioned wire JSON; see wavepipe/wire):
//
//	POST   /v1/jobs             submit {schemaVersion, deck, options?, priority?, label?}
//	GET    /v1/jobs/{id}        job status
//	GET    /v1/jobs/{id}/result block until terminal, full result
//	GET    /v1/jobs/{id}/stream NDJSON live waveform rows
//	DELETE /v1/jobs/{id}        cancel
//	GET    /metrics             Prometheus text
//
// With "Accept: application/x-wavepipe-frame", /result and /stream send
// their rows as binary little-endian float64 frames instead (the form
// wavepipe/client always asks for).
//
// Exit codes: 0 clean shutdown (SIGINT/SIGTERM), 1 startup or serve error,
// 2 flag usage.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"wavepipe"
	"wavepipe/internal/server"
)

func main() {
	addr := flag.String("addr", ":8380", "listen address")
	cores := flag.Int("cores", 0, "global core budget shared by all jobs (0 = GOMAXPROCS)")
	queueBound := flag.Int("max-queued", 64, "admission queue bound; beyond it submissions get 429")
	cacheSize := flag.Int("cache", 16, "compiled-artifact cache size in decks")
	dir := flag.String("dir", "", "directory for the per-job traces of -trace-jobs (default: temp dir)")
	traceJobs := flag.Bool("trace-jobs", false, "write per-job JSONL traces into -dir")
	flag.Parse()
	if flag.NArg() != 0 {
		fmt.Fprintf(os.Stderr, "wavesimd: unexpected arguments %v\n", flag.Args())
		flag.Usage()
		os.Exit(2)
	}

	svc, err := wavepipe.NewService(wavepipe.ServiceConfig{
		Cores:     *cores,
		MaxQueued: *queueBound,
		CacheSize: *cacheSize,
		Dir:       *dir,
		TraceJobs: *traceJobs,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "wavesimd: %v\n", err)
		os.Exit(1)
	}

	srv := &http.Server{
		Addr:              *addr,
		Handler:           server.New(server.Config{Client: svc, Metrics: svc.WritePrometheus}),
		ReadHeaderTimeout: 10 * time.Second,
	}

	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	fmt.Fprintf(os.Stderr, "wavesimd: listening on %s\n", *addr)

	select {
	case err := <-errc:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintf(os.Stderr, "wavesimd: %v\n", err)
			svc.Close()
			os.Exit(1)
		}
	case sig := <-sigc:
		fmt.Fprintf(os.Stderr, "wavesimd: %v, shutting down\n", sig)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = srv.Shutdown(ctx)
	svc.Close()
}
