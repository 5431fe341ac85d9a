// Package serve is the prediction serving subsystem: an HTTP JSON service
// layered on the lock-free core.Snapshot architecture and on the model
// registry (registry.go) — a fleet of named model entries behind one
// listener.
// Every model, the reserved "default" entry included, is addressed one way:
//
//	GET    /v2/models                     registry listing + load state
//	POST   /v2/models                     register a model entry
//	DELETE /v2/models/{id}                unregister (drains the entry)
//	POST   /v2/models/{id}/predict        single-shard and whole-application
//	                                      predictions, answered on the
//	                                      request goroutine
//	POST   /v2/models/{id}/predict:batch  many predictions, coalesced across
//	                                      clients by the entry's micro-batcher
//	                                      into shared evaluator passes
//	POST   /v2/models/{id}/samples        absorb new profiles into the entry
//	                                      (fan_out feeds every registered
//	                                      model whose application matches);
//	                                      optionally trigger an asynchronous
//	                                      update
//	GET    /v2/models/{id}/model          served-model provenance and fit-path
//	                                      counters
//	GET    /v2/models/{id}/lifecycle      continuous-learning control-loop
//	                                      status (404 unless the entry has a
//	                                      loop)
//	GET    /healthz                       liveness (and whether the default
//	                                      model is being served)
//	GET    /metrics                       Prometheus text exposition
//	                                      (metrics.go)
//
// The {id} of a route is an exact entry id or the "app:<name>" alias, which
// reaches the entry scoped to that application, else the wildcard entry
// (registry.resolve).
//
// The wire vocabulary is pkg/hsmodel's wire schema, so the CLI and the
// server speak the same types. A POST body must hold exactly one JSON value
// with no unknown fields (400) and at most maxBodyBytes (413). Every handler
// runs under a per-request timeout; a Server drains every entry's in-flight
// predict:batch jobs on Close; and the default served snapshot can be
// hot-reloaded from the persistence format (Reload, wired to SIGHUP by
// cmd/hsserve) — the Trainer guarantees a failed retrain or a rejected
// reload never replaces the snapshot being served.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"math"
	"net/http"
	"os"
	"sync"
	"time"

	"hsmodel/internal/core"
	"hsmodel/internal/hwspace"
	"hsmodel/internal/lifecycle"
	"hsmodel/internal/profile"
	"hsmodel/pkg/hsmodel"
)

// Config configures a Server. The zero value of every optional field takes
// the documented default.
type Config struct {
	// Trainer is the model served by the reserved "default" entry,
	// /v2/models/default (required). It may be untrained, in which case
	// predictions answer 503 until a model is trained, adopted, or reloaded;
	// with Lifecycle set it must be trained unless ModelPath names the
	// snapshot Reload serves (errLifecycleNoModel).
	Trainer *core.Trainer
	// MaxBatch caps the batcher jobs coalesced into one flush (default 32).
	// A job is one predict:batch request's single-shard items, so a 64-item
	// batch counts as one of MaxBatch. Single predictions (Predict, POST
	// /v2/models/{id}/predict) answer on their own request and never join a
	// flush.
	MaxBatch int
	// MaxWait is how long the batcher waits to fill a flush of
	// predict:batch jobs after the first one arrives (default 2ms). A
	// single prediction never waits on it.
	MaxWait time.Duration
	// QueueDepth bounds each model entry's one batcher queue of
	// predict:batch jobs (default 4*MaxBatch). When the queue is full the
	// request is shed: answered 429 with a Retry-After hint instead of
	// blocking behind a saturated worker. Single predictions are never shed.
	QueueDepth int
	// RequestTimeout bounds each request's context (default 5s).
	RequestTimeout time.Duration
	// ModelPath, when non-empty, names the snapshot file Reload serves the
	// default entry from.
	ModelPath string
	// ManifestPath, when non-empty, names a multi-model manifest
	// (hsmodel.Manifest): its entries are registered at construction, and
	// the file is rewritten after every successful wire register/unregister
	// so the fleet survives a restart. The reserved "default" entry is never
	// part of the manifest.
	ManifestPath string
	// Lifecycle, when non-nil, enables the continuous-learning control loop
	// (internal/lifecycle) on the default entry: its samples POSTs feed the
	// loop's bounded stores and drift detector instead of growing the
	// trainer's store without bound, and GET /v2/models/default/lifecycle
	// reports loop status. Manifest entries opt in per model. The server
	// owns every controller and closes them on Close.
	Lifecycle *lifecycle.Config
	// Logger receives serving events (update/reload outcomes); nil discards.
	Logger *log.Logger
}

func (c Config) withDefaults() Config {
	if c.MaxBatch <= 0 {
		c.MaxBatch = 32
	}
	if c.MaxWait <= 0 {
		c.MaxWait = 2 * time.Millisecond
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 4 * c.MaxBatch
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 5 * time.Second
	}
	if c.Logger == nil {
		c.Logger = log.New(io.Discard, "", 0)
	}
	return c
}

// Server is the HTTP prediction service: a model registry behind the
// model-addressed /v2 route family. Create with New, expose with Handler,
// and drain with Close after the HTTP listener has shut down.
type Server struct {
	cfg     Config
	reg     *registry
	def     *entry // the reserved default entry: Predict, Reload, healthz
	metrics *metrics
	mux     *http.ServeMux

	// manifestMu serializes persistManifest: reading the registry and
	// replacing the file happen as one step.
	manifestMu sync.Mutex
}

// New builds a Server: a registry whose reserved "default" entry serves
// cfg.Trainer, plus every entry of cfg.ManifestPath.
func New(cfg Config) (*Server, error) {
	if cfg.Trainer == nil {
		return nil, errors.New("serve: Config.Trainer is required")
	}
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:     cfg,
		metrics: newMetrics(),
	}
	// Every entry gets its own micro-batcher — one queue and one worker —
	// pinned to its own snapshot. The batch size and shed metrics are shared
	// series; per-model load shows up in the hsserve_registry_model_* gauges.
	s.reg = newRegistry(batcherConfig{
		maxBatch:   cfg.MaxBatch,
		maxWait:    cfg.MaxWait,
		queueDepth: cfg.QueueDepth,
		observe:    s.metrics.observeBatch,
		onShed:     func() { s.metrics.shedsTotal.Add(1) },
	})
	def, err := s.reg.registerTrainer(hsmodel.RegisterRequest{
		ID:        hsmodel.DefaultModelID,
		ModelPath: cfg.ModelPath,
		ShardLen:  cfg.Trainer.ShardLen,
	}, cfg.Lifecycle, cfg.Trainer)
	if err != nil {
		return nil, fmt.Errorf("serve: registering default entry: %w", err)
	}
	s.def = def
	if err := s.loadManifest(); err != nil {
		s.reg.close()
		return nil, err
	}

	s.mux = http.NewServeMux()
	s.mux.HandleFunc("GET /healthz", s.instrument("healthz", s.handleHealthz))
	s.mux.HandleFunc("GET /metrics", s.instrument("metrics", s.handleMetrics))
	s.mux.HandleFunc("GET /v2/models", s.instrument("v2_models", s.handleModels))
	s.mux.HandleFunc("POST /v2/models", s.instrument("v2_register", s.handleRegister))
	s.mux.HandleFunc("DELETE /v2/models/{id}", s.instrument("v2_unregister", s.handleUnregister))
	s.mux.HandleFunc("POST /v2/models/{id}/predict", s.v2Entry("v2_predict", s.handlePredict))
	s.mux.HandleFunc("POST /v2/models/{id}/predict:batch", s.v2Entry("v2_predict_batch", s.handleBatch))
	s.mux.HandleFunc("POST /v2/models/{id}/samples", s.v2Entry("v2_samples", s.handleSamples))
	s.mux.HandleFunc("GET /v2/models/{id}/model", s.v2Entry("v2_model", s.handleModel))
	s.mux.HandleFunc("GET /v2/models/{id}/lifecycle", s.v2Entry("v2_lifecycle", s.handleLifecycle))
	return s, nil
}

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Close drains the server: every predict:batch job already accepted by any
// entry's batcher is answered, later predictions answer ErrClosed, in-flight
// asynchronous updates complete, and every lifecycle controller shuts down.
// Call after the HTTP listener has stopped accepting requests
// (http.Server.Shutdown), so no handler can race the drain.
func (s *Server) Close() {
	s.reg.close()
}

// Reload hot-swaps the default entry's served snapshot from Config.ModelPath
// (a version-4 file, as Snapshot.Save writes). A snapshot that fails
// validation — the typed core.ErrModel*
// persistence errors — leaves the served model untouched. cmd/hsserve wires
// this to SIGHUP.
func (s *Server) Reload() error {
	if s.cfg.ModelPath == "" {
		return errors.New("serve: no model path configured for reload")
	}
	snap, err := core.LoadSnapshot(s.cfg.ModelPath)
	if err != nil {
		s.metrics.reloadErrors.Add(1)
		s.cfg.Logger.Printf("serve: snapshot reload rejected: %v", err)
		return err
	}
	s.def.trainer.Adopt(snap)
	s.metrics.reloads.Add(1)
	s.cfg.Logger.Printf("serve: snapshot reloaded from %s (rung %s, %d rows)",
		s.cfg.ModelPath, snap.Rung(), snap.TrainedRows())
	return nil
}

// loadManifest replays Config.ManifestPath into the registry. A missing file
// is an empty fleet, not an error; a malformed file or a failing entry is a
// loud construction failure — a misconfigured fleet should not boot half
// registered. The replay never rewrites the file, so a failed boot leaves it
// as it was.
func (s *Server) loadManifest() error {
	if s.cfg.ManifestPath == "" {
		return nil
	}
	data, err := os.ReadFile(s.cfg.ManifestPath)
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("serve: reading manifest: %w", err)
	}
	var man hsmodel.Manifest
	if err := json.Unmarshal(data, &man); err != nil {
		return fmt.Errorf("serve: decoding manifest %s: %w", s.cfg.ManifestPath, err)
	}
	for _, req := range man.Models {
		if req.ID == hsmodel.DefaultModelID {
			return fmt.Errorf("serve: manifest %s declares the reserved %q entry", s.cfg.ManifestPath, hsmodel.DefaultModelID)
		}
		if _, err := s.reg.register(req); err != nil {
			return fmt.Errorf("serve: manifest entry %q: %w", req.ID, err)
		}
		s.cfg.Logger.Printf("serve: registered model %q (app %q) from manifest", req.ID, req.Application)
	}
	return nil
}

// persistManifest rewrites Config.ManifestPath from the live registry,
// default entry excluded. handleRegister and handleUnregister call it after
// every successful change. manifestMu makes reading the registry and
// replacing the file (core.WriteFileAtomic, as Snapshot.Save does) a single
// step, so the last replacement carries every change completed before it. A
// persistence failure is logged, never fatal to the change that triggered
// it.
func (s *Server) persistManifest() {
	if s.cfg.ManifestPath == "" {
		return
	}
	s.manifestMu.Lock()
	defer s.manifestMu.Unlock()
	var man hsmodel.Manifest
	for _, e := range s.reg.list() {
		if e.req.ID != hsmodel.DefaultModelID {
			man.Models = append(man.Models, e.req)
		}
	}
	data, err := json.MarshalIndent(man, "", "  ")
	if err != nil {
		s.cfg.Logger.Printf("serve: encoding manifest: %v", err)
		return
	}
	if err := core.WriteFileAtomic(s.cfg.ManifestPath, append(data, '\n')); err != nil {
		s.cfg.Logger.Printf("serve: writing manifest: %v", err)
	}
}

// instrument wraps a handler with the per-request timeout and metrics. The
// handler writes to a *statusRecorder.
func (s *Server) instrument(name string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
		defer cancel()
		rec := &statusRecorder{ResponseWriter: w, code: http.StatusOK}
		h(rec, r.WithContext(ctx))
		s.metrics.observeRequest(rec.model, name, rec.code, time.Since(start).Seconds())
	}
}

// entryHandler is a handler bound to a resolved registry entry.
type entryHandler func(w http.ResponseWriter, r *http.Request, e *entry)

// v2Entry resolves the {id} path value — an exact entry id or the
// "app:<name>" alias — and instruments the request, counted under the
// resolved entry's id (an unknown id is counted under none).
func (s *Server) v2Entry(endpoint string, h entryHandler) http.HandlerFunc {
	return s.instrument(endpoint, func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		e, ok := s.reg.resolve(id)
		if !ok {
			writeError(w, fmt.Errorf("%w: %q", errNotFound, id))
			return
		}
		w.(*statusRecorder).model = e.req.ID
		h(w, r, e)
	})
}

// statusRecorder captures the response code, and the registry entry that
// served the request, for the request counter.
type statusRecorder struct {
	http.ResponseWriter
	code  int
	model string // "" on a route that addresses no entry
}

func (r *statusRecorder) WriteHeader(code int) {
	r.code = code
	r.ResponseWriter.WriteHeader(code)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

// writeError maps an error to its HTTP status and the shared wire
// ErrorResponse body.
func writeError(w http.ResponseWriter, err error) {
	code := http.StatusBadRequest
	switch {
	case errors.Is(err, core.ErrNotTrained):
		code = http.StatusServiceUnavailable
	case errors.Is(err, ErrClosed):
		code = http.StatusServiceUnavailable
	case errors.Is(err, ErrOverloaded):
		// Shed, not queued: tell well-behaved clients when to come back.
		w.Header().Set("Retry-After", "1")
		code = http.StatusTooManyRequests
	case errors.Is(err, errNotFound):
		code = http.StatusNotFound
	case errors.Is(err, errExists):
		code = http.StatusConflict
	case errors.Is(err, errNonFinite):
		code = http.StatusInternalServerError
	case errors.Is(err, core.ErrStoreFull), errors.Is(err, errRegistryFull):
		code = http.StatusInsufficientStorage
	case errors.As(err, new(*http.MaxBytesError)):
		code = http.StatusRequestEntityTooLarge
	case errors.Is(err, context.DeadlineExceeded):
		code = http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		code = 499 // client closed request
	}
	writeJSON(w, code, hsmodel.ErrorResponse{Error: err.Error()})
}

// maxBodyBytes bounds every request body; a longer one answers 413. One
// wire sample is about 370 bytes, so the bound admits a samples POST of
// over 20,000 rows, far above what any client in the tree sends.
const maxBodyBytes = 8 << 20

// decodeJSON decodes exactly one JSON value from a body of at most
// maxBodyBytes: unknown fields, trailing data and oversized bodies are
// errors (the last a *http.MaxBytesError, which writeError maps to 413).
func decodeJSON(w http.ResponseWriter, r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("serve: decoding request: %w", err)
	}
	var extra json.RawMessage
	switch err := dec.Decode(&extra); {
	case errors.Is(err, io.EOF):
		return nil
	case err != nil:
		return fmt.Errorf("serve: decoding request: %w", err)
	default:
		return errors.New("serve: decoding request: trailing data after the JSON value")
	}
}

// Predict answers one shard prediction through the default entry, on the
// calling goroutine — the same path as POST /v2/models/default/predict,
// minus HTTP. Once warm it allocates nothing. It never waits, so ctx is not
// consulted; it is taken for symmetry with PredictMany. The benchmark's
// in-process probes call it.
//
//hslint:hotpath
func (s *Server) Predict(_ context.Context, x profile.Characteristics, hw hwspace.Config) (float64, error) {
	return s.def.predict([]profile.Characteristics{x}, hw)
}

// PredictMany answers a whole batch as one batcher submission on the default
// entry, after the same admission check as its predict:batch route: out[i]
// answers (xs[i], hws[i]); len(hws) and len(out) must be at least len(xs).
// One queue round trip covers the entire batch, and the worker answers it
// through contiguous Snapshot.PredictBatch sweeps. On a ctx error the out
// buffer must be discarded.
func (s *Server) PredictMany(ctx context.Context, xs []profile.Characteristics, hws []hwspace.Config, out []float64) error {
	return s.def.batcher.PredictMany(ctx, xs, hws, out)
}

// predictOne answers one wire PredictRequest against an entry, on the
// request goroutine (entry.predict): a single shard or a whole application.
func predictOne(e *entry, req hsmodel.PredictRequest) (hsmodel.PredictResponse, error) {
	xs, hw, err := req.ShardInputs()
	if err != nil {
		return hsmodel.PredictResponse{}, err
	}
	cpi, err := e.predict(xs, hw)
	if err == nil {
		err = checkFinite(cpi)
	}
	if err != nil {
		return hsmodel.PredictResponse{}, err
	}
	return hsmodel.PredictResponse{CPI: cpi, Shards: len(xs)}, nil
}

// errNonFinite marks a prediction the model answered as NaN or ±Inf.
// encoding/json refuses such a value, so writeJSON would send the 200
// status with no body; the handlers answer it as a server error instead.
var errNonFinite = errors.New("serve: model answered a non-finite prediction")

// checkFinite returns errNonFinite for a NaN or infinite prediction.
func checkFinite(cpi float64) error {
	if math.IsNaN(cpi) || math.IsInf(cpi, 0) {
		return fmt.Errorf("%w: %v", errNonFinite, cpi)
	}
	return nil
}

func (s *Server) handlePredict(w http.ResponseWriter, r *http.Request, e *entry) {
	var req hsmodel.PredictRequest
	if err := decodeJSON(w, r, &req); err != nil {
		writeError(w, err)
		return
	}
	resp, err := predictOne(e, req)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request, e *entry) {
	var req hsmodel.BatchPredictRequest
	if err := decodeJSON(w, r, &req); err != nil {
		writeError(w, err)
		return
	}
	if len(req.Requests) == 0 {
		writeError(w, errors.New("serve: batch request has no items"))
		return
	}
	// Single-shard items ride the entry's batcher as ONE multi-item job —
	// one queue round trip for the whole request, answered in shared
	// PredictBatch sweeps (alongside items coalesced from other in-flight
	// HTTP requests). Whole-application items answer directly, as in
	// predictOne.
	results := make([]hsmodel.BatchPredictItem, len(req.Requests))
	xs := make([]profile.Characteristics, 0, len(req.Requests))
	hws := make([]hwspace.Config, 0, len(req.Requests))
	idx := make([]int, 0, len(req.Requests))
	for i, pr := range req.Requests {
		shardXs, hw, err := pr.ShardInputs()
		if err != nil {
			results[i] = hsmodel.BatchPredictItem{Error: err.Error()}
			continue
		}
		if len(shardXs) == 1 && len(pr.Shards) == 0 {
			xs = append(xs, shardXs[0])
			hws = append(hws, hw)
			idx = append(idx, i)
			continue
		}
		cpi, err := e.predict(shardXs, hw)
		if err == nil {
			err = checkFinite(cpi)
		}
		if err != nil {
			results[i] = hsmodel.BatchPredictItem{Error: err.Error()}
			continue
		}
		results[i] = hsmodel.BatchPredictItem{CPI: cpi, Shards: len(shardXs)}
	}
	if len(xs) > 0 {
		out := make([]float64, len(xs))
		if err := e.batcher.PredictMany(r.Context(), xs, hws, out); err != nil {
			for _, i := range idx {
				results[i] = hsmodel.BatchPredictItem{Error: err.Error()}
			}
		} else {
			for k, i := range idx {
				if err := checkFinite(out[k]); err != nil {
					results[i] = hsmodel.BatchPredictItem{Error: err.Error()}
					continue
				}
				results[i] = hsmodel.BatchPredictItem{CPI: out[k], Shards: 1}
			}
		}
	}
	writeJSON(w, http.StatusOK, hsmodel.BatchPredictResponse{Results: results})
}

// decodeSamples converts a wire samples body into core samples.
func decodeSamples(w http.ResponseWriter, r *http.Request) (hsmodel.SamplesRequest, []core.Sample, error) {
	var req hsmodel.SamplesRequest
	if err := decodeJSON(w, r, &req); err != nil {
		return req, nil, err
	}
	if len(req.Samples) == 0 {
		return req, nil, errors.New("serve: samples request has no samples")
	}
	samples := make([]core.Sample, len(req.Samples))
	for i, sw := range req.Samples {
		sample, err := sw.ToSample()
		if err != nil {
			return req, nil, fmt.Errorf("serve: sample %d: %w", i, err)
		}
		samples[i] = sample
	}
	return req, samples, nil
}

// handleSamples feeds samples to the addressed entry only, unless fan_out
// asks for the registry-wide fan-out to every entry whose application scope
// matches each sample (the response then lists every model that absorbed
// samples). An addressed entry whose store the batch would overflow answers
// 507, accepts nothing and starts no update. TotalSamples reports the entry
// trainer's store; see hsmodel.SamplesResponse for what that counts on an
// entry with a control loop.
func (s *Server) handleSamples(w http.ResponseWriter, r *http.Request, e *entry) {
	req, samples, err := decodeSamples(w, r)
	if err != nil {
		writeError(w, err)
		return
	}
	resp := hsmodel.SamplesResponse{Accepted: len(samples)}
	if req.FanOut {
		resp.Models = s.reg.submit(samples)
	} else if err := e.absorb(samples); err != nil {
		writeError(w, err)
		return
	}
	s.metrics.samplesAccepted.Add(uint64(len(samples)))
	resp.TotalSamples = e.trainer.NumSamples()
	if req.Update {
		resp.UpdateStarted = s.triggerUpdate(e)
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleLifecycle reports an entry's control loop status; 404 when the loop
// is not enabled so probes can distinguish "disabled" from "unhealthy".
func (s *Server) handleLifecycle(w http.ResponseWriter, r *http.Request, e *entry) {
	lc := e.lifecycle
	if lc == nil {
		writeJSON(w, http.StatusNotFound, hsmodel.ErrorResponse{Error: "serve: lifecycle loop not enabled"})
		return
	}
	writeJSON(w, http.StatusOK, lc.Status())
}

// updateTimeout bounds an asynchronous re-specification triggered by a
// samples POST.
const updateTimeout = 5 * time.Minute

// triggerUpdate starts one asynchronous re-specification of the entry if
// none is in flight and the entry has no control loop. The Trainer's
// snapshot semantics make the failure path safe: an update that errors
// leaves the served snapshot untouched.
func (s *Server) triggerUpdate(e *entry) bool {
	id := e.req.ID
	started := e.triggerUpdate(updateTimeout, func(err error) {
		if err != nil {
			s.metrics.updatesFailed.Add(1)
			s.cfg.Logger.Printf("serve: async update failed (snapshot retained): model %q: %v", id, err)
			return
		}
		s.metrics.updatesOK.Add(1)
	})
	if started {
		s.metrics.updatesStarted.Add(1)
	}
	return started
}

// entryView is one registry entry as a response reads it: its publication,
// latest training report, store size, queue depth and loop status, each read
// once. The listing, the model route and the scrape all render from it, so a
// response reports each fact of an entry once, from one reading.
type entryView struct {
	e       *entry
	pub     core.Publication
	rep     core.TrainReport
	samples int
	queued  int
	lc      *lifecycle.Status // nil unless the entry has a control loop
}

func viewOf(e *entry) entryView {
	v := entryView{
		e:       e,
		pub:     e.trainer.Published(),
		rep:     e.trainer.Report(),
		samples: e.trainer.NumSamples(),
		queued:  e.batcher.Queued(),
	}
	if e.lifecycle != nil {
		st := e.lifecycle.Status()
		v.lc = &st
	}
	return v
}

// views reads every registered entry, sorted by id.
func (s *Server) views() []entryView {
	entries := s.reg.list()
	views := make([]entryView, len(entries))
	for i, e := range entries {
		views[i] = viewOf(e)
	}
	return views
}

func (v entryView) id() string { return v.e.req.ID }

// age is the time since the publication, 0 before the first one
// (Generation 0 carries no publish time).
func (v entryView) age() time.Duration {
	if v.pub.Generation == 0 {
		return 0
	}
	return time.Since(v.pub.At)
}

// info is the wire ModelInfo of the model route: the snapshot's fields
// (hsmodel.SnapshotInfo) plus the entry's identity and store.
func (v entryView) info() hsmodel.ModelInfo {
	info := hsmodel.SnapshotInfo(v.pub.Snapshot)
	info.Model = v.id()
	info.Application = v.e.req.Application
	info.ArchSpace = v.e.req.ArchSpace
	info.TotalSamples = v.samples
	info.SnapshotVersion = v.pub.Generation
	info.SnapshotAgeSec = v.age().Seconds()
	info.GramFits, info.QRFallbacks = v.rep.Gram.GramFits, v.rep.Gram.QRFallbacks
	return info
}

// status summarizes the entry for the registry listing, the register
// answer and the scrape.
func (v entryView) status() hsmodel.ModelStatus {
	snap := v.pub.Snapshot
	ms := hsmodel.ModelStatus{
		ID:              v.id(),
		Application:     v.e.req.Application,
		ArchSpace:       v.e.req.ArchSpace,
		Trained:         snap.Trained(),
		TotalSamples:    v.samples,
		SnapshotVersion: v.pub.Generation,
		QueueDepth:      v.queued,
		ModelPath:       v.e.req.ModelPath,
		Families:        v.e.req.Families,
	}
	if snap.Trained() {
		ms.Family = snap.Family()
		ms.Rung = snap.Rung().String()
		ms.TrainedRows = snap.TrainedRows()
	}
	if v.lc != nil {
		ms.Lifecycle = v.lc.State
	}
	return ms
}

func (s *Server) handleModel(w http.ResponseWriter, r *http.Request, e *entry) {
	writeJSON(w, http.StatusOK, viewOf(e).info())
}

func (s *Server) handleModels(w http.ResponseWriter, r *http.Request) {
	views := s.views()
	status := hsmodel.RegistryStatus{
		Models:  make([]hsmodel.ModelStatus, len(views)),
		Default: hsmodel.DefaultModelID,
	}
	for i, v := range views {
		status.Models[i] = v.status()
		status.QueueDepth += status.Models[i].QueueDepth
	}
	writeJSON(w, http.StatusOK, status)
}

func (s *Server) handleRegister(w http.ResponseWriter, r *http.Request) {
	var req hsmodel.RegisterRequest
	if err := decodeJSON(w, r, &req); err != nil {
		writeError(w, err)
		return
	}
	if req.ID == hsmodel.DefaultModelID {
		writeError(w, fmt.Errorf("serve: model id %q is reserved for the default entry", hsmodel.DefaultModelID))
		return
	}
	e, err := s.reg.register(req)
	if err != nil {
		writeError(w, err)
		return
	}
	s.persistManifest()
	s.cfg.Logger.Printf("serve: registered model %q (app %q)", e.req.ID, e.req.Application)
	writeJSON(w, http.StatusCreated, viewOf(e).status())
}

func (s *Server) handleUnregister(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if id == hsmodel.DefaultModelID {
		writeError(w, fmt.Errorf("serve: the reserved %q entry cannot be unregistered", hsmodel.DefaultModelID))
		return
	}
	if err := s.reg.unregister(id); err != nil {
		writeError(w, err)
		return
	}
	s.persistManifest()
	s.cfg.Logger.Printf("serve: unregistered model %q", id)
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"status":  "ok",
		"trained": s.def.trainer.Snapshot().Trained(),
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.metrics.writeTo(w, s.views())
}
