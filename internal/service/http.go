package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"os"

	"res/internal/obs"
)

// SubmitRequest is the POST /v1/dumps body and Submit's argument. Either
// ProgramID names an already-registered program, or ProgramSource
// carries the assembly text (registered on first sight, keyed by
// content, so resubmitting the same source is free). Dump is the
// serialized coredump, base64-encoded on the wire by encoding/json.
// Options, when present, override analysis knobs for this request only
// (and become part of the result's cache key).
//
// Every submit request's field order keeps the small identifying fields
// ahead of the bulk payloads for the cluster router's streaming head
// parser, and every one carries a Trace that never goes on the wire: the
// handlers fill it from the traceparent header, and the zero value makes
// this process the request's ingest edge.
type SubmitRequest struct {
	ProgramID     string           `json:"program_id,omitempty"`
	ProgramName   string           `json:"program_name,omitempty"`
	ProgramSource string           `json:"program_source,omitempty"`
	Options       *SubmitOverrides `json:"options,omitempty"`
	Dump          []byte           `json:"dump"`
	// Evidence is the dump's optional evidence attachment: canonical
	// evidence wire bytes (internal/evidence), base64 on the wire. It is
	// folded into the result's cache identity.
	Evidence []byte `json:"evidence,omitempty"`
	// Checkpoints is the dump's optional checkpoint-ring attachment:
	// canonical checkpoint wire bytes (internal/checkpoint), base64 on
	// the wire. It bounds the analysis's backward search and is folded
	// into the result's cache identity. The service keeps the slice, so
	// the caller must not modify it after submitting.
	Checkpoints []byte           `json:"checkpoints,omitempty"`
	Trace       obs.TraceContext `json:"-"`
}

// SubmitFixRequest is the POST /v1/fixes body: one failing dump plus a
// candidate fix to verify against it. Patch is accepted in either patch
// form — canonical RESPATCH1 wire bytes or the human text format
// (replace/insert/delete <label> ... end) — base64 on the wire. The
// program is named like a dump submission: ProgramID for a registered
// program, or ProgramSource to register on first sight. Verification
// needs the program's assembly source (patches are keyed by its labels);
// it comes from ProgramSource or from an earlier source registration.
type SubmitFixRequest struct {
	ProgramID     string           `json:"program_id,omitempty"`
	ProgramName   string           `json:"program_name,omitempty"`
	ProgramSource string           `json:"program_source,omitempty"`
	Options       *SubmitOverrides `json:"options,omitempty"`
	Patch         []byte           `json:"patch"`
	Dump          []byte           `json:"dump"`
	Trace         obs.TraceContext `json:"-"`
}

// BatchSubmitRequest is the POST /v1/dumps/batch body: one program, many
// dumps, optional shared per-request option overrides.
type BatchSubmitRequest struct {
	ProgramID     string           `json:"program_id,omitempty"`
	ProgramName   string           `json:"program_name,omitempty"`
	ProgramSource string           `json:"program_source,omitempty"`
	Options       *SubmitOverrides `json:"options,omitempty"`
	Dumps         [][]byte         `json:"dumps"`
	// Evidence, when present, is positional with Dumps (entries may be
	// empty/null for dumps submitted without evidence).
	Evidence [][]byte `json:"evidence,omitempty"`
	// Checkpoints, when present, is positional with Dumps (entries may
	// be empty/null for dumps submitted without a checkpoint ring). As
	// with SubmitRequest, the service keeps each entry's slice.
	Checkpoints [][]byte         `json:"checkpoints,omitempty"`
	Trace       obs.TraceContext `json:"-"`
}

// MinimizeRequest is the optional POST /v1/jobs/{id}/minimize body:
// per-request option overrides for the minimization (empty inherits the
// analysis job's own).
type MinimizeRequest struct {
	Options *SubmitOverrides `json:"options,omitempty"`
	Trace   obs.TraceContext `json:"-"`
}

// BatchSubmitResponse is the POST /v1/dumps/batch reply; Jobs is
// positional with the request's Dumps.
type BatchSubmitResponse struct {
	Jobs []BatchItem `json:"jobs"`
}

// RegisterRequest is the POST /v1/programs body.
type RegisterRequest struct {
	Name   string `json:"name"`
	Source string `json:"source"`
}

// RegisterResponse is the POST /v1/programs reply.
type RegisterResponse struct {
	ProgramID string `json:"program_id"`
}

// errorResponse is the JSON error envelope for every non-2xx reply.
type errorResponse struct {
	Error string `json:"error"`
}

// Handler returns the service's HTTP API:
//
//	POST /v1/programs         register a program, returns its program_id
//	POST /v1/dumps            submit a dump (202 queued, 200 done/cached,
//	                          429 queue full, 503 draining)
//	POST /v1/fixes            submit a candidate fix for verification
//	                          against a failing dump; the job's report is
//	                          a fixed/not-fixed/inconclusive verdict
//	POST /v1/jobs/{id}/minimize  delta-debug a finished analysis job's
//	                          tuple into a minimal repro (409 when the
//	                          tuple is no longer reconstructible)
//	GET  /v1/results/{id}     job status + report
//	GET  /v1/jobs/{id}/events NDJSON stream of analysis progress events
//	GET  /v1/jobs/{id}/trace  the analysis's span tree (?format=chrome
//	                          for Chrome trace-event JSON)
//	GET  /v1/buckets          crash-dedup buckets
//	GET  /healthz             liveness (503 while draining)
//	GET  /metrics             Prometheus-style text metrics
//
// plus the node-internal observability endpoints:
//
//	GET  /internal/v1/trace/{id}  this node's raw span fragments for a
//	                              job (what the cluster stitcher reads)
//	GET  /internal/v1/flightrec   the flight recorder ring
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/programs", s.handleRegister)
	mux.HandleFunc("POST /v1/dumps", s.handleSubmit)
	mux.HandleFunc("POST /v1/dumps/batch", s.handleSubmitBatch)
	mux.HandleFunc("POST /v1/fixes", s.handleSubmitFix)
	mux.HandleFunc("POST /v1/jobs/{id}/minimize", s.handleMinimize)
	mux.HandleFunc("GET /v1/results/{id}", s.handleResult)
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleJobEvents)
	mux.HandleFunc("GET /v1/jobs/{id}/trace", s.handleJobTrace)
	mux.HandleFunc("GET /v1/buckets", s.handleBuckets)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /internal/v1/trace/{id}", s.handleTraceFragments)
	mux.HandleFunc("GET /internal/v1/flightrec", s.handleFlightRec)
	return s.recoverPanics(mux)
}

// recoverPanics converts a handler panic into a 500 after dumping the
// flight recorder: the ring holds the moments leading up to the panic,
// which is exactly when it must not be lost.
func (s *Service) recoverPanics(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			rec := recover()
			if rec == nil || rec == http.ErrAbortHandler {
				return
			}
			slog.Error("handler panic", "path", r.URL.Path, "panic", fmt.Sprint(rec))
			s.cfg.FlightRec.Record(obs.FlightEvent{Kind: "panic", Msg: fmt.Sprintf("%s: %v", r.URL.Path, rec)})
			s.cfg.FlightRec.Dump(os.Stderr, "panic in "+r.URL.Path)
			writeJSON(w, http.StatusInternalServerError, errorResponse{Error: "internal error"})
		}()
		next.ServeHTTP(w, r)
	})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, err error) {
	code := http.StatusInternalServerError
	switch {
	case errors.Is(err, ErrQueueFull):
		code = http.StatusTooManyRequests
	case errors.Is(err, ErrDraining):
		code = http.StatusServiceUnavailable
	case errors.Is(err, ErrUnknownProgram), errors.Is(err, ErrUnknownJob):
		code = http.StatusNotFound
	case errors.Is(err, ErrBadRequest), errors.Is(err, ErrBadDump), errors.Is(err, ErrBadSource),
		errors.Is(err, ErrBadPatch), errors.Is(err, ErrNoSource):
		code = http.StatusBadRequest
	case errors.Is(err, ErrMinimizeUnavailable):
		code = http.StatusConflict
	}
	writeJSON(w, code, errorResponse{Error: err.Error()})
}

// DefaultMaxRequestBody bounds POST bodies when Config.MaxRequestBody is
// unset (base64 in JSON inflates a dump ~4/3, so this admits dumps up to
// ~192MB serialized while keeping a malicious or runaway client from
// buffering the daemon into the ground).
const DefaultMaxRequestBody = 256 << 20

// maxBody resolves the configured request-body cap.
func (s *Service) maxBody() int64 {
	if s.cfg.MaxRequestBody > 0 {
		return s.cfg.MaxRequestBody
	}
	return DefaultMaxRequestBody
}

// decodeBody decodes a size-capped JSON request body into v, answering
// 400 itself when the body does not parse.
func (s *Service) decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	r.Body = http.MaxBytesReader(w, r.Body, s.maxBody())
	if err := json.NewDecoder(r.Body).Decode(v); err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "bad request body: " + err.Error()})
		return false
	}
	return true
}

// traceContext is the distributed trace context a request's traceparent
// header carries.
func traceContext(r *http.Request) obs.TraceContext {
	return obs.ParseTraceparent(r.Header.Get(obs.TraceparentHeader))
}

// writeJob answers a one-job submission: the job with its routing
// headers, 202 while queued and 200 once terminal (a cache hit is 200
// immediately), or the error's status.
func writeJob(w http.ResponseWriter, job Job, err error) {
	if err != nil {
		writeError(w, err)
		return
	}
	setSubmitHeaders(w, job)
	code := http.StatusAccepted
	if job.Status.Terminal() {
		code = http.StatusOK
	}
	writeJSON(w, code, job)
}

func (s *Service) handleRegister(w http.ResponseWriter, r *http.Request) {
	var req RegisterRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	if req.Source == "" {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "source is required"})
		return
	}
	id, err := s.RegisterSource(req.Name, req.Source)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, RegisterResponse{ProgramID: id})
}

func (s *Service) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req SubmitRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	req.Trace = traceContext(r)
	job, err := s.Submit(req)
	writeJob(w, job, err)
}

// handleSubmitFix submits a candidate fix for verification; the response
// mirrors dump submission.
func (s *Service) handleSubmitFix(w http.ResponseWriter, r *http.Request) {
	var req SubmitFixRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	req.Trace = traceContext(r)
	job, err := s.SubmitFix(req)
	writeJob(w, job, err)
}

// handleMinimize starts a minimization of a finished analysis job. The
// new ModeMinimize job is returned like a submission; 409 means the input
// tuple can no longer be reconstructed on this node. The body is
// optional.
func (s *Service) handleMinimize(w http.ResponseWriter, r *http.Request) {
	var req MinimizeRequest
	if r.ContentLength != 0 && !s.decodeBody(w, r, &req) {
		return
	}
	req.Trace = traceContext(r)
	job, err := s.MinimizeJob(r.PathValue("id"), req)
	writeJob(w, job, err)
}

// Response headers the routing layer reads off a proxied submission:
// the job ID keys the router's trace fragment, the trace ID propagates
// back to the ingest edge, and the cached marker lets the router skip
// recording fragments for jobs that never ran (their trace endpoint
// 404s by design).
const (
	JobHeader    = "X-Resd-Job"
	TraceHeader  = "X-Resd-Trace"
	CachedHeader = "X-Resd-Cached"
)

func setSubmitHeaders(w http.ResponseWriter, job Job) {
	if job.ID != "" {
		w.Header().Set(JobHeader, job.ID)
	}
	if job.TraceID != "" {
		w.Header().Set(TraceHeader, job.TraceID)
	}
	if job.Cached {
		w.Header().Set(CachedHeader, "true")
	}
}

// handleSubmitBatch ingests a burst of dumps for one program in a single
// request. The response is always 200 with positional per-item outcomes;
// only request-level problems (bad body, unknown/unregisterable program)
// get a non-2xx status.
func (s *Service) handleSubmitBatch(w http.ResponseWriter, r *http.Request) {
	var req BatchSubmitRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	req.Trace = traceContext(r)
	items, err := s.SubmitBatch(req)
	if err != nil {
		writeError(w, err)
		return
	}
	// The headers carry the first accepted job so the routing layer can
	// key its trace fragment; the per-item outcomes are in the body.
	for _, it := range items {
		if it.Error == "" {
			setSubmitHeaders(w, it.Job)
			break
		}
	}
	writeJSON(w, http.StatusOK, BatchSubmitResponse{Jobs: items})
}

func (s *Service) handleResult(w http.ResponseWriter, r *http.Request) {
	job, ok := s.Job(r.PathValue("id"))
	if !ok {
		writeError(w, ErrUnknownJob)
		return
	}
	writeJSON(w, http.StatusOK, job)
}

// handleJobEvents streams a job's analysis progress as NDJSON: one
// ProgressEvent per line, flushed as produced, ending with a terminal
// "status" event. Already-terminal jobs get just the status line, so the
// endpoint doubles as a blocking completion wait.
func (s *Service) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	ch, cancel, err := s.Watch(r.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return
	}
	defer cancel()
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	for {
		select {
		case ev, ok := <-ch:
			if !ok {
				return
			}
			if enc.Encode(ev) != nil {
				return // client gone
			}
			if flusher != nil {
				flusher.Flush()
			}
			if ev.Kind == "status" {
				return
			}
		case <-r.Context().Done():
			return
		}
	}
}

// handleJobTrace serves a job's stitched span tree — the request
// fragment with the analysis span tree grafted under its analyze span:
// the canonical wire form by default, Chrome trace-event JSON
// (loadable in chrome://tracing or Perfetto) with ?format=chrome, an
// indented text summary with ?format=text. Jobs that never ran an
// analysis in this process — cache hits, journal-replayed or evicted
// records — have no trace and return 404.
func (s *Service) handleJobTrace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	tr := obs.Stitch(s.TraceFragments(id))
	if tr == nil {
		if _, exists := s.Job(id); exists {
			writeJSON(w, http.StatusNotFound, errorResponse{
				Error: "no trace for job " + id + " (cached, replayed, or not yet finished)"})
		} else {
			writeError(w, ErrUnknownJob)
		}
		return
	}
	WriteTrace(w, r, tr)
}

// WriteTrace renders a span tree in the format the ?format query
// selects; the cluster stitcher reuses it for merged traces.
func WriteTrace(w http.ResponseWriter, r *http.Request, tr *obs.TraceData) {
	switch r.URL.Query().Get("format") {
	case "chrome":
		w.Header().Set("Content-Type", "application/json")
		w.Write(tr.ChromeTrace())
	case "text":
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.Write([]byte(tr.Summary()))
	default:
		writeJSON(w, http.StatusOK, tr)
	}
}

// handleTraceFragments serves this node's raw fragments for a job —
// the stitcher's per-node fetch. An empty list is a 200, not a 404:
// "this node recorded nothing" is an answer, and the cluster stitcher
// distinguishes it from "job unknown everywhere".
func (s *Service) handleTraceFragments(w http.ResponseWriter, r *http.Request) {
	frags := s.TraceFragments(r.PathValue("id"))
	if frags == nil {
		frags = []*obs.TraceData{}
	}
	writeJSON(w, http.StatusOK, frags)
}

// handleFlightRec serves the flight recorder ring.
func (s *Service) handleFlightRec(w http.ResponseWriter, r *http.Request) {
	if s.cfg.FlightRec == nil {
		writeJSON(w, http.StatusNotFound, errorResponse{Error: "flight recorder not enabled"})
		return
	}
	w.Header().Set("Content-Type", "application/json")
	s.cfg.FlightRec.WriteJSON(w)
}

func (s *Service) handleBuckets(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, struct {
		Buckets []Bucket `json:"buckets"`
	}{Buckets: s.Buckets()})
}

func (s *Service) handleHealth(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	code := http.StatusOK
	status := "ok"
	if draining {
		code = http.StatusServiceUnavailable
		status = "draining"
	}
	writeJSON(w, code, struct {
		Status string `json:"status"`
	}{Status: status})
}

// handleMetrics renders MetricsSnapshot in the Prometheus text
// exposition format (counters, gauges, and histograms — still no
// external dependency).
func (s *Service) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	obs.WriteProm(w, s.MetricsSnapshot())
}
