package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"repro/internal/core"
	"repro/internal/mr"
	"repro/internal/relation"
)

// ResultHash renders the order-insensitive content hash of an
// execution's output — the value both the daemon and one-shot
// thetajoin print, so results are comparable across entry points.
func ResultHash(res *core.ExecResult) string {
	return fmt.Sprintf("%016x", relation.ContentHash(res.Output))
}

// Handler returns the service's HTTP API:
//
//	POST /query    {"name","spec","limit"} → Response JSON
//	GET  /healthz  liveness (200 "ok")
//	GET  /metrics  the obs metrics registry as JSON
//
// The error contract separates the caller's fault from the service's
// state:
//
//	429 + Retry-After  queue full — the client sent too much; back off
//	                   and retry unchanged.
//	503 + Retry-After  transient service degradation worth retrying:
//	                   admission-queue timeout, a query whose task
//	                   retries were exhausted (mr.TaskError), or a
//	                   query past Config.QueryTimeout.
//	503 (no header)    shutting down — retry against another instance.
//	500                the executor failed an accepted, planned query
//	                   for any other reason — the service's fault.
//	400                the request never reached execution: malformed
//	                   body or spec, unknown relation or alias, or a
//	                   planning error.
//	413                the request body is larger than maxRequestBytes
//	                   (1 MiB); it is not read further.
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /query", s.handleQuery)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if err := s.o.Metrics.WriteJSON(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	return mux
}

// maxRequestBytes bounds a POST /query body. A request is a name and a
// query spec — a few hundred bytes — so the bound only stops a client
// from making the daemon buffer whatever it chooses to send.
const maxRequestBytes = 1 << 20

func (s *Service) handleQuery(w http.ResponseWriter, r *http.Request) {
	var req Request
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBytes)).Decode(&req); err != nil {
		status := http.StatusBadRequest
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			status = http.StatusRequestEntityTooLarge
		}
		http.Error(w, "bad request body: "+err.Error(), status)
		return
	}
	resp, err := s.Submit(r.Context(), req)
	if err != nil {
		var te *mr.TaskError
		var ee *execError
		switch {
		case errors.Is(err, ErrQueueFull):
			w.Header().Set("Retry-After", "1")
			http.Error(w, err.Error(), http.StatusTooManyRequests)
		case errors.Is(err, ErrTimedOut):
			w.Header().Set("Retry-After", "1")
			http.Error(w, err.Error(), http.StatusServiceUnavailable)
		case errors.As(err, &te), errors.Is(err, context.DeadlineExceeded):
			// Degraded service, not a bad query: a task exhausted its
			// attempt budget, or the per-query deadline expired. The
			// same request may well succeed once the pressure passes.
			w.Header().Set("Retry-After", "1")
			http.Error(w, err.Error(), http.StatusServiceUnavailable)
		case errors.Is(err, ErrClosed):
			// Shutdown: no Retry-After — THIS instance won't recover;
			// clients should fail over, not wait.
			http.Error(w, err.Error(), http.StatusServiceUnavailable)
		case errors.As(err, &ee) && !errors.Is(err, context.Canceled):
			http.Error(w, err.Error(), http.StatusInternalServerError)
		default:
			http.Error(w, err.Error(), http.StatusBadRequest)
		}
		return
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(resp); err != nil {
		// Headers are gone; nothing to do but log the encode failure.
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}
