package server

import "net/http"

// NewWithBodyLimit is New with the POST /v1/jobs body bound replaced, so a
// test can exceed it without a 64 MiB request.
func NewWithBodyLimit(cfg Config, maxBody int64) http.Handler { return newHandler(cfg, maxBody) }
