package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"strconv"
	"time"

	"mindmappings/internal/modelstore"
	"mindmappings/internal/obs"
	"mindmappings/internal/obs/slo"
	"mindmappings/internal/trainer"
	"mindmappings/internal/workload"
)

// Server assembles the HTTP JSON API over a JobManager, ModelRegistry, and
// EvalCache. Build one with NewServer and mount Handler on an
// http.Server.
//
// Endpoints:
//
//	POST   /v1/search             enqueue a search job (202 + job snapshot);
//	                              the X-Tenant header keys per-tenant admission
//	                              quotas (429) and load shedding (503), both
//	                              with Retry-After
//	GET    /v1/jobs               list all jobs
//	GET    /v1/jobs/{id}          job status, result, best-EDP trajectory
//	DELETE /v1/jobs/{id}          cancel a queued or in-flight job
//	POST   /v1/jobs/{id}/resume   continue a cancelled/failed search job from
//	                              its last checkpoint
//	POST   /v1/train              enqueue a training job (202 + job snapshot)
//	GET    /v1/train              list training jobs
//	GET    /v1/train/{id}         training status: phase, samples, epoch, losses
//	DELETE /v1/train/{id}         cancel a training job (checkpoint retained)
//	POST   /v1/train/{id}/resume  continue a cancelled/failed job from its checkpoint
//	GET    /v1/models             store artifacts (manifests), raw surrogate files,
//	                              and the registered workloads
//	DELETE /v1/models/{id}        delete a store artifact
//	POST   /v1/models/gc          drop superseded versions (?keep=N, default 2)
//	GET    /v1/jobs/{id}/trace    span tree + progress-event history of a search job
//	GET    /v1/jobs/{id}/events   live search progress (Server-Sent Events)
//	GET    /v1/train/{id}/trace   span tree + event history of a training job
//	GET    /v1/train/{id}/events  live training progress (Server-Sent Events)
//	GET    /v1/metrics            JSON rendering of the /metrics registry: each series
//	                              keyed name{labels}, histograms as count/sum/
//	                              p50/p95/p99, plus uptime
//	GET    /v1/status             operational summary: SLO health score, per-objective
//	                              burn rates, queue pressure, retry hint
//	GET    /metrics               Prometheus text exposition of the registry
//	                              (per-tenant RED series, SLO burn-rate gauges)
//	GET    /debug/flightrecorder  recent operational events (rejections, shed
//	                              decisions, job failures, journal errors)
//	GET    /healthz               liveness probe
//	GET    /readyz                readiness probe: 503 once draining begins (or SLO
//	                              health hits 0), so load balancers stop routing
//
// The training endpoints answer 503 until WithTraining attaches a store
// and pipeline. EnablePprof mounts net/http/pprof under /debug/pprof/.
type Server struct {
	jobs     *JobManager
	registry *ModelRegistry
	cache    *EvalCache
	store    *modelstore.Store
	trainer  *trainer.Pipeline
	started  time.Time

	reg         *obs.Registry
	httpMetrics *obs.HTTPMetrics
	logger      *slog.Logger
	pprofOn     bool

	// slo is the declarative objective tracker (EnableSLO); flight is the
	// operational-event ring behind GET /debug/flightrecorder, always on
	// (a fixed-size ring costs nothing when nothing goes wrong).
	slo    *slo.Tracker
	flight *obs.FlightRecorder
}

// NewServer wires the service components into an HTTP front end, building
// the obs registry every request and job flows through: runtime metrics,
// HTTP route histograms, and the job manager's queue/run/eval metrics.
func NewServer(jobs *JobManager, registry *ModelRegistry, cache *EvalCache) *Server {
	s := &Server{jobs: jobs, registry: registry, cache: cache, started: time.Now(), reg: obs.NewRegistry()}
	obs.RegisterRuntimeMetrics(s.reg, s.started)
	s.httpMetrics = obs.NewHTTPMetrics(s.reg)
	jobs.Instrument(s.reg)
	s.flight = obs.NewFlightRecorder(0)
	jobs.SetFlightRecorder(s.flight)
	// Observability-hygiene counters: how much telemetry the obs layer
	// itself discarded (label sets collapsed by the cardinality cap, spans
	// dropped by the per-parent child cap). Nonzero values mean the
	// telemetry is summarizing, not lying silently.
	s.reg.CounterFunc("obs_dropped_labels_total",
		"Label-set registrations collapsed into _overflow series by the cardinality cap.",
		func() float64 { return float64(s.reg.DroppedLabels()) })
	s.reg.CounterFunc("obs_dropped_spans_total",
		"Trace spans dropped by the per-parent child cap.",
		func() float64 { return float64(obs.DroppedSpans()) })
	s.reg.GaugeFunc("admission_retry_after_hint_seconds",
		"Live Retry-After estimate handed to rejected clients.",
		func() float64 { return s.jobs.RetryAfterHint().Seconds() })
	s.reg.CounterFunc("eval_cache_hits_total",
		"Shared eval-cache hits across all search jobs.",
		func() float64 { return float64(s.cache.Stats().Hits) })
	s.reg.CounterFunc("eval_cache_misses_total",
		"Shared eval-cache misses across all search jobs.",
		func() float64 { return float64(s.cache.Stats().Misses) })
	s.reg.GaugeFunc("eval_cache_entries",
		"Entries resident in the shared eval cache.",
		func() float64 { return float64(s.cache.Stats().Entries) })
	s.reg.GaugeFunc("eval_cache_capacity",
		"Configured capacity of the shared eval cache (serve -evalcache-cap).",
		func() float64 { return float64(s.cache.Stats().Capacity) })
	s.reg.GaugeFunc("eval_cache_utilization",
		"Occupancy fraction of the shared eval cache (entries/capacity).",
		func() float64 { return s.cache.Stats().Utilization })
	s.reg.CounterFunc("model_registry_disk_loads_total",
		"Surrogate loads from disk (registry misses).",
		func() float64 { return float64(s.registry.Stats().Loads) })
	s.reg.GaugeFunc("model_registry_loaded",
		"Surrogates resident in the in-memory model registry.",
		func() float64 { return float64(s.registry.Stats().Loaded) })
	return s
}

// SetLogger installs a structured logger for per-request log lines
// (request ID, method, route, status, latency). Nil disables logging.
// Returns the server for chaining.
func (s *Server) SetLogger(l *slog.Logger) *Server {
	s.logger = l
	return s
}

// EnablePprof mounts net/http/pprof under /debug/pprof/ on the next
// Handler call (opt-in: profiling endpoints expose internals, so serve
// gates them behind a flag). Returns the server for chaining.
func (s *Server) EnablePprof() *Server {
	s.pprofOn = true
	return s
}

// Registry exposes the server's metric registry so embedders can attach
// their own series.
func (s *Server) Registry() *obs.Registry { return s.reg }

// WithTraining attaches the artifact store and training pipeline, enabling
// the /v1/train endpoints, store-backed /v1/models, and — through the job
// manager — "model":"auto" and train_on_miss. Returns the server for
// chaining.
func (s *Server) WithTraining(store *modelstore.Store, tp *trainer.Pipeline) *Server {
	s.store = store
	s.trainer = tp
	s.registry.AttachStore(store)
	s.jobs.EnableTraining(store, tp)
	s.reg.CounterFunc("trainer_jobs_submitted_total",
		"Training jobs accepted by POST /v1/train.",
		func() float64 { return float64(tp.Stats().Submitted) })
	s.reg.CounterFunc("trainer_jobs_done_total",
		"Training jobs that published an artifact.",
		func() float64 { return float64(tp.Stats().Done) })
	s.reg.CounterFunc("trainer_jobs_failed_total",
		"Training jobs that ended in an error.",
		func() float64 { return float64(tp.Stats().Failed) })
	s.reg.CounterFunc("trainer_jobs_cancelled_total",
		"Training jobs cancelled by clients or shutdown.",
		func() float64 { return float64(tp.Stats().Cancelled) })
	s.reg.GaugeFunc("trainer_jobs_queued",
		"Training jobs waiting for a pipeline worker.",
		func() float64 { return float64(tp.Stats().Queued) })
	s.reg.GaugeFunc("trainer_jobs_running",
		"Training jobs currently executing.",
		func() float64 { return float64(tp.Stats().Running) })
	s.reg.GaugeFunc("store_artifacts",
		"Published surrogate artifacts in the model store.",
		func() float64 { return float64(store.Stats().Artifacts) })
	s.reg.GaugeFunc("store_workloads",
		"Distinct workload fingerprints in the model store.",
		func() float64 { return float64(store.Stats().Workloads) })
	return s
}

// Handler returns the routed HTTP handler, wrapped in the obs middleware
// (request IDs, per-route latency histograms, structured log lines).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("GET /readyz", s.handleReady)
	mux.HandleFunc("POST /v1/search", s.handleSearch)
	mux.HandleFunc("POST /v1/jobs/{id}/resume", s.handleResumeJob)
	mux.HandleFunc("GET /v1/jobs", s.handleListJobs)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleGetJob)
	mux.HandleFunc("GET /v1/jobs/{id}/trace", s.handleJobTrace)
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleJobEvents)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancelJob)
	mux.HandleFunc("POST /v1/train", s.handleTrain)
	mux.HandleFunc("GET /v1/train", s.handleListTrain)
	mux.HandleFunc("GET /v1/train/{id}", s.handleGetTrain)
	mux.HandleFunc("GET /v1/train/{id}/trace", s.handleTrainTrace)
	mux.HandleFunc("GET /v1/train/{id}/events", s.handleTrainEvents)
	mux.HandleFunc("DELETE /v1/train/{id}", s.handleCancelTrain)
	mux.HandleFunc("POST /v1/train/{id}/resume", s.handleResumeTrain)
	mux.HandleFunc("GET /v1/models", s.handleModels)
	mux.HandleFunc("DELETE /v1/models/{id}", s.handleDeleteModel)
	mux.HandleFunc("POST /v1/models/gc", s.handleGCModels)
	mux.HandleFunc("GET /v1/metrics", s.handleMetrics)
	mux.HandleFunc("GET /v1/status", s.handleStatus)
	mux.Handle("GET /metrics", s.reg.Handler())
	mux.HandleFunc("GET /debug/flightrecorder", s.handleFlightRecorder)
	if s.pprofOn {
		mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	return obs.Middleware(mux, s.httpMetrics, s.logger)
}

// handleJobTrace returns a search job's span tree plus its retained
// progress events.
func (s *Server) handleJobTrace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	snap, ok := s.jobs.TraceSnapshot(id)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", id))
		return
	}
	events, _ := s.jobs.Events(id)
	writeJSON(w, http.StatusOK, map[string]any{"id": id, "trace": snap, "events": events})
}

// handleJobEvents streams a search job's progress as Server-Sent Events:
// the retained history first, then live samples until the job ends or the
// client disconnects.
func (s *Server) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	hist, ch, cancel, ok := s.jobs.Watch(id)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", id))
		return
	}
	serveSSE(w, r, hist, ch, cancel, func() (ProgressEvent, bool) {
		job, ok := s.jobs.Get(id)
		if !ok || !job.Status.Terminal() {
			return ProgressEvent{}, false
		}
		ev := ProgressEvent{Status: job.Status, Error: job.Error}
		if res := job.Result; res != nil {
			ev.Eval = res.Evals
			ev.BestEDP = res.BestEDP
			ev.ElapsedMS = res.ElapsedMS
			if res.ElapsedMS > 0 {
				ev.EvalsPerSec = float64(res.Evals) / (res.ElapsedMS / 1e3)
			}
		}
		return ev, true
	})
}

func (s *Server) handleTrainTrace(w http.ResponseWriter, r *http.Request) {
	if s.trainer == nil {
		writeError(w, http.StatusServiceUnavailable, errTrainingDisabled)
		return
	}
	id := r.PathValue("id")
	snap, ok := s.trainer.Trace(id)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown training job %q", id))
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"id": id, "trace": snap})
}

func (s *Server) handleTrainEvents(w http.ResponseWriter, r *http.Request) {
	if s.trainer == nil {
		writeError(w, http.StatusServiceUnavailable, errTrainingDisabled)
		return
	}
	id := r.PathValue("id")
	hist, ch, cancel, ok := s.trainer.Watch(id)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown training job %q", id))
		return
	}
	serveSSE(w, r, hist, ch, cancel, func() (trainer.Event, bool) {
		job, ok := s.trainer.Get(id)
		if !ok || !job.Status.Terminal() {
			return trainer.Event{}, false
		}
		return trainer.Event{Status: job.Status, Progress: job.Progress, Error: job.Error}, true
	})
}

// serveSSE streams history-then-live events as text/event-stream, one JSON
// object per "data:" frame. It returns when the stream closes (job
// reached a terminal state) or the client disconnects — cancel runs either
// way, so no subscription or goroutine outlives the request. Stream
// fan-out is lossy under a slow client (Publish never blocks a search on
// an SSE connection), so after the stream closes the final frame is
// re-synthesized from the job's terminal state via final and sent unless
// it just went out — the terminal status always reaches the client.
func serveSSE[T comparable](w http.ResponseWriter, r *http.Request, hist []T, ch <-chan T, cancel func(), final func() (T, bool)) {
	defer cancel()
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, errors.New("streaming unsupported by this connection"))
		return
	}
	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	var last T
	send := func(v T) bool {
		raw, err := json.Marshal(v)
		if err != nil {
			return false
		}
		if _, err := fmt.Fprintf(w, "data: %s\n\n", raw); err != nil {
			return false
		}
		fl.Flush()
		last = v
		return true
	}
	for _, v := range hist {
		if !send(v) {
			return
		}
	}
	for {
		select {
		case <-r.Context().Done():
			return
		case v, open := <-ch:
			if !open {
				if fin, ok := final(); ok && fin != last {
					send(fin)
				}
				return
			}
			if !send(v) {
				return
			}
		}
	}
}

// writeJSON renders v with status code.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v) // the status line is already out; nothing to recover
}

// apiError is the uniform error body.
type apiError struct {
	Error string `json:"error"`
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, apiError{Error: err.Error()})
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"status": "ok",
		"uptime": time.Since(s.started).Round(time.Millisecond).String(),
	})
}

// handleReady is the readiness probe: unlike /healthz (liveness — the
// process is up), it flips to 503 the moment a graceful drain begins, so
// load balancers stop routing new work while in-flight jobs checkpoint.
// With SLOs enabled it also turns unready at health 0 — every objective
// burning at critical rate — the same signal the admission controller
// hard-sheds on, so the balancer and the shedder agree on "unhealthy".
func (s *Server) handleReady(w http.ResponseWriter, r *http.Request) {
	if s.jobs.Draining() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{"status": "draining"})
		return
	}
	if s.slo != nil {
		if h := s.slo.Health(); h <= 0 {
			writeJSON(w, http.StatusServiceUnavailable, map[string]any{"status": "unhealthy", "health": h})
			return
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{"status": "ready"})
}

// handleStatus is the one-glance operational summary: overall SLO health
// and per-objective burn rates, queue pressure, and the retry hint —
// everything /readyz and the load shedder act on, in readable form.
func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	queued, running := s.jobs.queueDepth()
	st := StatusReport{
		Health:               1,
		Uptime:               time.Since(s.started).Round(time.Millisecond).String(),
		Draining:             s.jobs.Draining(),
		Queued:               queued,
		Running:              running,
		QueueCap:             s.jobs.QueueCap(),
		Workers:              s.jobs.Workers(),
		RetryAfterHint:       s.jobs.RetryAfterHint().String(),
		FlightRecorderEvents: s.flight.Total(),
	}
	if s.slo != nil {
		rep := s.slo.Evaluate()
		st.Health = rep.Health
		st.SLO = &rep
	}
	st.Status = statusOf(st.Health, st.Draining)
	writeJSON(w, http.StatusOK, st)
}

// handleFlightRecorder dumps the operational-event ring, oldest first —
// the "what happened just before this?" endpoint the diag bundle snapshots.
func (s *Server) handleFlightRecorder(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.flight.Snapshot())
}

// setRetryAfter writes a Retry-After header of at least one whole second.
func setRetryAfter(w http.ResponseWriter, d time.Duration) {
	secs := int(d.Round(time.Second).Seconds())
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.Itoa(secs))
}

func (s *Server) handleSearch(w http.ResponseWriter, r *http.Request) {
	var req SearchRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("decoding request: %w", err))
		return
	}
	job, err := s.jobs.SubmitAs(r.Header.Get("X-Tenant"), req)
	var admErr *AdmissionError
	switch {
	case errors.As(err, &admErr):
		setRetryAfter(w, admErr.Decision.RetryAfter)
		writeError(w, admErr.Decision.Code, err)
		return
	case errors.Is(err, ErrQueueFull):
		setRetryAfter(w, s.jobs.RetryAfterHint())
		writeError(w, http.StatusServiceUnavailable, err)
		return
	case errors.Is(err, errShuttingDown):
		writeError(w, http.StatusServiceUnavailable, err)
		return
	case err != nil:
		writeError(w, http.StatusBadRequest, err)
		return
	}
	w.Header().Set("Location", "/v1/jobs/"+job.ID)
	writeJSON(w, http.StatusAccepted, job)
}

// handleResumeJob continues a cancelled or failed search job from its last
// checkpoint (or from scratch when it was cancelled before running).
func (s *Server) handleResumeJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	job, err := s.jobs.Resume(id)
	switch {
	case err == nil:
	case errors.Is(err, ErrQueueFull):
		setRetryAfter(w, s.jobs.RetryAfterHint())
		writeError(w, http.StatusServiceUnavailable, err)
		return
	case errors.Is(err, errShuttingDown):
		writeError(w, http.StatusServiceUnavailable, err)
		return
	default:
		if _, ok := s.jobs.Get(id); !ok {
			writeError(w, http.StatusNotFound, err)
			return
		}
		writeError(w, http.StatusConflict, err)
		return
	}
	w.Header().Set("Location", "/v1/jobs/"+job.ID)
	writeJSON(w, http.StatusAccepted, job)
}

func (s *Server) handleListJobs(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"jobs": s.jobs.List()})
}

func (s *Server) handleGetJob(w http.ResponseWriter, r *http.Request) {
	job, ok := s.jobs.Get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", r.PathValue("id")))
		return
	}
	writeJSON(w, http.StatusOK, job)
}

func (s *Server) handleCancelJob(w http.ResponseWriter, r *http.Request) {
	job, ok := s.jobs.Cancel(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", r.PathValue("id")))
		return
	}
	writeJSON(w, http.StatusOK, job)
}

// errTrainingDisabled answers the training endpoints of a server started
// without a store/pipeline.
var errTrainingDisabled = errors.New("training is disabled on this server (serve with -store)")

func (s *Server) handleTrain(w http.ResponseWriter, r *http.Request) {
	if s.trainer == nil {
		writeError(w, http.StatusServiceUnavailable, errTrainingDisabled)
		return
	}
	var req trainer.Request
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("decoding request: %w", err))
		return
	}
	job, err := s.trainer.Submit(req)
	switch {
	case errors.Is(err, trainer.ErrQueueFull):
		w.Header().Set("Retry-After", "5")
		writeError(w, http.StatusServiceUnavailable, err)
		return
	case err != nil:
		writeError(w, http.StatusBadRequest, err)
		return
	}
	w.Header().Set("Location", "/v1/train/"+job.ID)
	writeJSON(w, http.StatusAccepted, job)
}

func (s *Server) handleListTrain(w http.ResponseWriter, r *http.Request) {
	if s.trainer == nil {
		writeError(w, http.StatusServiceUnavailable, errTrainingDisabled)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"jobs": s.trainer.List()})
}

func (s *Server) handleGetTrain(w http.ResponseWriter, r *http.Request) {
	if s.trainer == nil {
		writeError(w, http.StatusServiceUnavailable, errTrainingDisabled)
		return
	}
	job, ok := s.trainer.Get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown training job %q", r.PathValue("id")))
		return
	}
	writeJSON(w, http.StatusOK, job)
}

func (s *Server) handleCancelTrain(w http.ResponseWriter, r *http.Request) {
	if s.trainer == nil {
		writeError(w, http.StatusServiceUnavailable, errTrainingDisabled)
		return
	}
	job, ok := s.trainer.Cancel(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown training job %q", r.PathValue("id")))
		return
	}
	writeJSON(w, http.StatusOK, job)
}

func (s *Server) handleResumeTrain(w http.ResponseWriter, r *http.Request) {
	if s.trainer == nil {
		writeError(w, http.StatusServiceUnavailable, errTrainingDisabled)
		return
	}
	job, err := s.trainer.Resume(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	w.Header().Set("Location", "/v1/train/"+job.ID)
	writeJSON(w, http.StatusAccepted, job)
}

func (s *Server) handleModels(w http.ResponseWriter, r *http.Request) {
	models, err := s.registry.List()
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	if models == nil {
		models = []ModelInfo{}
	}
	body := map[string]any{
		"models": models,
		// The workload list is generated from the registry, so the API
		// surface can never drift from the algorithms the binary serves.
		"workloads": workload.List(),
	}
	if s.store != nil {
		body["store"] = s.store.List()
	}
	writeJSON(w, http.StatusOK, body)
}

func (s *Server) handleDeleteModel(w http.ResponseWriter, r *http.Request) {
	if s.store == nil {
		writeError(w, http.StatusServiceUnavailable, errTrainingDisabled)
		return
	}
	id := r.PathValue("id")
	switch err := s.store.Delete(id); {
	case errors.Is(err, modelstore.ErrUnknownArtifact):
		writeError(w, http.StatusNotFound, err)
		return
	case err != nil:
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	s.registry.Invalidate(id) // never serve a deleted artifact from memory
	writeJSON(w, http.StatusOK, map[string]any{"deleted": id})
}

func (s *Server) handleGCModels(w http.ResponseWriter, r *http.Request) {
	if s.store == nil {
		writeError(w, http.StatusServiceUnavailable, errTrainingDisabled)
		return
	}
	keep := 2
	if q := r.URL.Query().Get("keep"); q != "" {
		v, err := strconv.Atoi(q)
		if err != nil || v < 1 {
			writeError(w, http.StatusBadRequest, fmt.Errorf("bad keep %q", q))
			return
		}
		keep = v
	}
	removed, err := s.store.GC(keep)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	if removed == nil {
		removed = []string{}
	}
	for _, id := range removed {
		s.registry.Invalidate(id)
	}
	writeJSON(w, http.StatusOK, map[string]any{"removed": removed, "kept_per_workload": keep})
}

// handleMetrics serves the registry as JSON, rendered by the same walk as
// GET /metrics: every series keyed by its exposition identity
// (`name{labels}`), histograms as count/sum/p50/p95/p99, plus uptime.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	m := s.reg.Snapshot()
	m["uptime"] = time.Since(s.started).Round(time.Millisecond).String()
	writeJSON(w, http.StatusOK, m)
}
