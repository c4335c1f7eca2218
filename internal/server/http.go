package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"runtime/debug"
	"strconv"
)

// Handler returns the server's HTTP API:
//
//	GET  /healthz        liveness (200 while the process serves)
//	GET  /readyz         readiness (503 once draining)
//	GET  /metrics        Prometheus text exposition
//	GET  /programs       registered program names
//	POST /programs       compile + register Delirium source
//	POST /run/{name}     execute one run
//
// Every handler is panic-isolated: a bug in request handling returns a
// structured 500 instead of killing the daemon.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		if s.draining.Load() {
			writeError(w, errDraining())
			return
		}
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "ready")
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		w.Write([]byte(s.MetricsText()))
	})
	mux.HandleFunc("GET /programs", s.handleListPrograms)
	mux.HandleFunc("POST /programs", s.handleRegister)
	mux.HandleFunc("POST /run/{name}", s.handleRun)
	return panicGuard(s, mux)
}

// panicGuard converts handler panics into structured 500s. The run path
// has its own inner recover (execute); this outer one catches everything
// else — routing, encoding, metrics.
func panicGuard(s *Server, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if rec := recover(); rec != nil {
				s.panics.Add(1)
				writeError(w, &APIError{Status: http.StatusInternalServerError, Code: "internal",
					Message: fmt.Sprintf("handler panicked: %v\n%s", rec, debug.Stack())})
			}
		}()
		next.ServeHTTP(w, r)
	})
}

func (s *Server) handleListPrograms(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"programs": s.Programs()})
}

// RegisterRequest is the body of POST /programs.
type RegisterRequest struct {
	Name   string `json:"name"`
	Source string `json:"source"`
	// Deprecated: no effect; kept until benchmark/ stops naming it (ROADMAP item 1).
	Fuse bool `json:"fuse,omitempty"`
	// Deprecated: no effect; kept until benchmark/ stops naming it (ROADMAP item 1).
	MemPlan bool `json:"memplan,omitempty"`
	Prelude bool `json:"prelude,omitempty"`
	Workers int  `json:"workers,omitempty"`
}

func (s *Server) handleRegister(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeError(w, errDraining())
		return
	}
	var req RegisterRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&req); err != nil {
		writeError(w, &APIError{Status: http.StatusBadRequest, Code: "bad_request",
			Message: fmt.Sprintf("body: %v", err)})
		return
	}
	if req.Name == "" || req.Source == "" {
		writeError(w, &APIError{Status: http.StatusBadRequest, Code: "bad_request",
			Message: "name and source are required"})
		return
	}
	workers := req.Workers
	if workers <= 0 || workers > 16 {
		workers = s.cfg.Workers
	}
	spec, err := CompileSource(req.Name, req.Source, workers, req.Prelude)
	if err != nil {
		writeError(w, &APIError{Status: http.StatusBadRequest, Code: "bad_request",
			Message: fmt.Sprintf("compile: %v", err)})
		return
	}
	if err := s.Register(spec); err != nil {
		var ae *APIError
		if asAPIError(err, &ae) {
			writeError(w, ae)
			return
		}
		writeError(w, &APIError{Status: http.StatusBadRequest, Code: "bad_request", Message: err.Error()})
		return
	}
	writeJSON(w, http.StatusCreated, map[string]any{
		"program": req.Name, "nodes": spec.Prog.NodeCount()})
}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	var req RunRequest
	if r.ContentLength != 0 {
		if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&req); err != nil {
			writeError(w, &APIError{Status: http.StatusBadRequest, Code: "bad_request",
				Message: fmt.Sprintf("body: %v", err)})
			return
		}
	}
	resp, apiErr := s.Execute(r.Context(), name, req)
	if apiErr != nil {
		writeError(w, apiErr)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

func writeJSON(w http.ResponseWriter, status int, body any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	enc.Encode(body)
}

// writeError renders the error envelope. Overload and drain responses
// carry the backoff hint twice: Retry-After in whole seconds (the standard
// header, ceiling-rounded so it is never 0) and X-Retry-After-Ms exact.
func writeError(w http.ResponseWriter, ae *APIError) {
	if ae.RetryAfterMS > 0 {
		secs := (ae.RetryAfterMS + 999) / 1000
		w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
		w.Header().Set("X-Retry-After-Ms", strconv.FormatInt(ae.RetryAfterMS, 10))
	}
	status := ae.Status
	if status == 0 {
		status = http.StatusInternalServerError
	}
	writeJSON(w, status, ErrorBody{Error: ae})
}

func asAPIError(err error, target **APIError) bool {
	ae, ok := err.(*APIError)
	if ok {
		*target = ae
	}
	return ok
}
