// Package serve is the prediction serving subsystem: an HTTP JSON service
// layered on the lock-free core.Snapshot architecture and, since the
// multi-model work, on internal/registry — a fleet of named model entries
// behind one listener. It exposes
//
//	POST /v1/predict        single-shard and whole-application predictions
//	POST /v1/predict:batch  many predictions, coalesced across clients by
//	                        the micro-batcher into shared evaluator passes
//	POST /v1/samples        absorb new profiles — fanned out to every
//	                        registered model whose application matches;
//	                        optionally trigger an asynchronous update
//	GET  /v1/model          served-model provenance and fit-path counters
//	GET  /v1/lifecycle      continuous-learning control-loop status (404
//	                        unless Config.Lifecycle enables the loop)
//	GET  /healthz           liveness (and whether a model is being served)
//	GET  /metrics           Prometheus text exposition (metrics.go)
//
//	GET    /v2/models                     registry listing + load state
//	POST   /v2/models                     register a model entry
//	DELETE /v2/models/{id}                unregister (drains the entry)
//	POST   /v2/models/{id}/predict        model-addressed predict
//	POST   /v2/models/{id}/predict:batch  model-addressed batch predict
//	POST   /v2/models/{id}/samples        entry-scoped samples (fan_out
//	                                      restores the /v1 fan-out)
//	GET    /v2/models/{id}/model          model-addressed provenance
//
// Every /v1/* route is an alias of the reserved "default" registry entry:
// its handlers run the same code paths against the same entry, so v1
// response bodies are bit-identical to the single-model server's (they
// additionally carry a Deprecation header pointing at the v2 successor).
// The {id} of a /v2 route is an exact entry id or the "app:<name>" alias
// routed over the registry's consistent-hash ring.
//
// The wire vocabulary is pkg/hsmodel's wire schema, so the CLI and the
// server speak the same types. Every handler runs under a per-request
// timeout; a Server drains every entry's in-flight batches on Close; and
// the default served snapshot can be hot-reloaded from the persistence
// format (Reload, wired to SIGHUP by cmd/hsserve) — the Trainer guarantees
// a failed retrain or a rejected reload never replaces the snapshot being
// served.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"sync/atomic"
	"time"

	"hsmodel/internal/core"
	"hsmodel/internal/hwspace"
	"hsmodel/internal/lifecycle"
	"hsmodel/internal/profile"
	"hsmodel/internal/registry"
	"hsmodel/pkg/hsmodel"
)

// Config configures a Server. The zero value of every optional field takes
// the documented default.
type Config struct {
	// Trainer is the model served by the reserved "default" entry — the one
	// every /v1/* route addresses (required). It may be untrained, in which
	// case predictions answer 503 until a model is trained, adopted, or
	// reloaded.
	Trainer *core.Trainer
	// MaxBatch caps the batcher jobs coalesced into one flush (default 32).
	// A job is one submission: a single prediction, or a whole
	// predict:batch request's single-shard items, so a 64-item batch counts
	// as one of MaxBatch.
	MaxBatch int
	// MaxWait is how long the batcher waits to fill a batch after the first
	// request arrives (default 2ms).
	MaxWait time.Duration
	// QueueDepth bounds each model entry's one batcher queue (default
	// 4*MaxBatch). When the queue is full the request is shed: answered 429
	// with a Retry-After hint instead of blocking behind a saturated worker.
	QueueDepth int
	// QueueBound sheds predictions registry-wide: once the aggregate queued
	// predictions across every entry reach it, new predictions on any entry
	// answer 429 + Retry-After. 0 disables the aggregate bound (per-entry
	// queue shedding still applies).
	QueueBound int
	// RegistrySeed determinizes consistent-hash routing of "app:<name>"
	// model addresses.
	RegistrySeed uint64
	// MaxEvalCaches bounds how many entries keep their featurized evaluator
	// caches (default 4) so aggregate training memory stays flat as models
	// multiply.
	MaxEvalCaches int
	// RequestTimeout bounds each request's context (default 5s).
	RequestTimeout time.Duration
	// UpdateTimeout bounds asynchronous re-specifications triggered by
	// samples POSTs (default 5m).
	UpdateTimeout time.Duration
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
	// (internal/lifecycle) on the default entry: POST /v1/samples feeds the
	// loop's bounded stores and drift detector instead of growing the
	// trainer's store without bound, and GET /v1/lifecycle reports loop
	// status. Manifest entries opt in per model. The server owns every
	// controller and closes them on Close.
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
	if c.UpdateTimeout <= 0 {
		c.UpdateTimeout = 5 * time.Minute
	}
	if c.Logger == nil {
		c.Logger = log.New(io.Discard, "", 0)
	}
	return c
}

// Server is the HTTP prediction service: a model registry behind the v1
// (default-entry alias) and v2 (model-addressed) route families. Create
// with New, expose with Handler, and drain with Close after the HTTP
// listener has shut down.
type Server struct {
	cfg     Config
	reg     *registry.Registry
	def     *registry.Entry // the reserved default entry every /v1 route addresses
	metrics *metrics
	mux     *http.ServeMux

	// manifestReady gates manifest persistence until construction has fully
	// replayed the manifest, so a failed boot never truncates the file.
	manifestReady atomic.Bool
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
	s.reg = registry.New(registry.Config{
		Seed:          cfg.RegistrySeed,
		QueueBound:    cfg.QueueBound,
		MaxEvalCaches: cfg.MaxEvalCaches,
		NewBatcher:    s.newEntryBatcher,
		OnShed:        func() { s.metrics.registrySheds.Add(1) },
		OnChange:      s.persistManifest,
	})
	def, err := s.reg.RegisterTrainer(registry.Spec{
		ID:        hsmodel.DefaultModelID,
		ModelPath: cfg.ModelPath,
		ShardLen:  cfg.Trainer.ShardLen,
		Lifecycle: cfg.Lifecycle,
	}, cfg.Trainer)
	if err != nil {
		return nil, fmt.Errorf("serve: registering default entry: %w", err)
	}
	s.def = def
	if err := s.loadManifest(); err != nil {
		s.reg.Close()
		return nil, err
	}
	s.manifestReady.Store(true)

	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/predict", s.instrument("predict", s.v1Entry("predict", s.handlePredict)))
	s.mux.HandleFunc("POST /v1/predict:batch", s.instrument("predict_batch", s.v1Entry("predict_batch", s.handleBatch)))
	s.mux.HandleFunc("POST /v1/samples", s.instrument("samples", s.v1Entry("samples", s.handleSamples)))
	s.mux.HandleFunc("GET /v1/model", s.instrument("model", s.v1Entry("model", s.handleModel)))
	s.mux.HandleFunc("GET /v1/lifecycle", s.instrument("lifecycle", s.v1Entry("lifecycle", s.handleLifecycle)))
	s.mux.HandleFunc("GET /healthz", s.instrument("healthz", s.handleHealthz))
	s.mux.HandleFunc("GET /metrics", s.instrument("metrics", s.handleMetrics))

	s.mux.HandleFunc("GET /v2/models", s.instrument("v2_models", s.handleModels))
	s.mux.HandleFunc("POST /v2/models", s.instrument("v2_register", s.handleRegister))
	s.mux.HandleFunc("DELETE /v2/models/{id}", s.instrument("v2_unregister", s.handleUnregister))
	s.mux.HandleFunc("POST /v2/models/{id}/predict", s.v2Entry("v2_predict", s.handlePredict))
	s.mux.HandleFunc("POST /v2/models/{id}/predict:batch", s.v2Entry("v2_predict_batch", s.handleBatch))
	s.mux.HandleFunc("POST /v2/models/{id}/samples", s.v2Entry("v2_samples", s.handleV2Samples))
	s.mux.HandleFunc("GET /v2/models/{id}/model", s.v2Entry("v2_model", s.handleV2Model))
	return s, nil
}

// newEntryBatcher is the registry's batcher factory: every entry gets its
// own micro-batcher — one queue and one worker — pinned to its own snapshot.
// The batch size and shed metrics are shared series; per-model load shows up
// in the hsserve_registry_model_* gauges.
func (s *Server) newEntryBatcher(e *registry.Entry) registry.Batcher {
	return newBatcher(batcherConfig{
		maxBatch:   s.cfg.MaxBatch,
		maxWait:    s.cfg.MaxWait,
		queueDepth: s.cfg.QueueDepth,
		snap:       e.Trainer().Snapshot,
		observe:    s.metrics.observeBatch,
		onShed:     func() { s.metrics.shedsTotal.Add(1) },
	})
}

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Registry exposes the model registry (read-mostly: tests and in-process
// embedders).
func (s *Server) Registry() *registry.Registry { return s.reg }

// Close drains the server: every prediction already accepted by any entry's
// batcher is answered, in-flight asynchronous updates complete, and every
// lifecycle controller shuts down. Call after the HTTP listener has stopped
// accepting requests (http.Server.Shutdown), so no handler can race the
// drain.
func (s *Server) Close() {
	s.reg.Close()
}

// Reload hot-swaps the default entry's served snapshot from Config.ModelPath
// (any loadable persistence version; the current family-aware v4 or the
// legacy v2/v3). A snapshot that fails validation — the typed core.ErrModel*
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
	s.def.Trainer().Adopt(snap)
	s.metrics.reloads.Add(1)
	s.cfg.Logger.Printf("serve: snapshot reloaded from %s (rung %s, %d rows)",
		s.cfg.ModelPath, snap.Rung(), snap.TrainedRows())
	return nil
}

// loadManifest replays Config.ManifestPath into the registry. A missing file
// is an empty fleet, not an error; a malformed file or a failing entry is a
// loud construction failure — a misconfigured fleet should not boot half
// registered.
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
		if _, err := s.reg.Register(specFromWire(req)); err != nil {
			return fmt.Errorf("serve: manifest entry %q: %w", req.ID, err)
		}
		s.cfg.Logger.Printf("serve: registered model %q (app %q) from manifest", req.ID, req.Application)
	}
	return nil
}

// persistManifest rewrites Config.ManifestPath from the live registry
// (atomically, default entry excluded). Wired as the registry's OnChange
// hook; a persistence failure is logged, never fatal to the mutation that
// triggered it.
func (s *Server) persistManifest() {
	if s.cfg.ManifestPath == "" || !s.manifestReady.Load() {
		return
	}
	var man hsmodel.Manifest
	for _, spec := range s.reg.Specs() {
		if spec.ID == hsmodel.DefaultModelID {
			continue
		}
		man.Models = append(man.Models, wireFromSpec(spec))
	}
	data, err := json.MarshalIndent(man, "", "  ")
	if err != nil {
		s.cfg.Logger.Printf("serve: encoding manifest: %v", err)
		return
	}
	tmp := s.cfg.ManifestPath + ".tmp"
	if err := os.WriteFile(tmp, append(data, '\n'), 0o644); err != nil {
		s.cfg.Logger.Printf("serve: writing manifest: %v", err)
		return
	}
	if err := os.Rename(tmp, s.cfg.ManifestPath); err != nil {
		s.cfg.Logger.Printf("serve: replacing manifest: %v", err)
	}
}

// specFromWire converts the wire registration form to the registry spec.
func specFromWire(req hsmodel.RegisterRequest) registry.Spec {
	spec := registry.Spec{
		ID:          req.ID,
		Application: req.Application,
		ArchSpace:   req.ArchSpace,
		ModelPath:   req.ModelPath,
		Families:    req.Families,
		Seed:        req.Seed,
		ShardLen:    req.ShardLen,
		Population:  req.Population,
		Generations: req.Generations,
	}
	if req.Lifecycle != nil {
		lc := lifecycle.Config{
			MinProfiles:     req.Lifecycle.MinProfiles,
			CanaryTolerance: req.Lifecycle.CanaryTolerance,
			Seed:            req.Lifecycle.Seed,
		}
		lc.Drift.Threshold = req.Lifecycle.DriftThreshold
		spec.Lifecycle = &lc
	}
	return spec
}

// wireFromSpec is the manifest-persistence inverse of specFromWire.
func wireFromSpec(spec registry.Spec) hsmodel.RegisterRequest {
	req := hsmodel.RegisterRequest{
		ID:          spec.ID,
		Application: spec.Application,
		ArchSpace:   spec.ArchSpace,
		ModelPath:   spec.ModelPath,
		Families:    spec.Families,
		Seed:        spec.Seed,
		ShardLen:    spec.ShardLen,
		Population:  spec.Population,
		Generations: spec.Generations,
	}
	if spec.Lifecycle != nil {
		req.Lifecycle = &hsmodel.LifecycleWire{
			DriftThreshold:  spec.Lifecycle.Drift.Threshold,
			MinProfiles:     spec.Lifecycle.MinProfiles,
			CanaryTolerance: spec.Lifecycle.CanaryTolerance,
			Seed:            spec.Lifecycle.Seed,
		}
	}
	return req
}

// instrument wraps a handler with the per-request timeout and metrics.
func (s *Server) instrument(name string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
		defer cancel()
		rec := &statusRecorder{ResponseWriter: w, code: http.StatusOK}
		h(rec, r.WithContext(ctx))
		s.metrics.observeRequest(name, rec.code, time.Since(start).Seconds())
	}
}

// entryHandler is a handler bound to a resolved registry entry.
type entryHandler func(w http.ResponseWriter, r *http.Request, e *registry.Entry)

// v1Entry binds a handler to the reserved default entry, stamps the
// deprecation note pointing v1 clients at the v2 successor route, and feeds
// the per-model request counter. The response body is untouched — v1 stays
// bit-identical to the single-model server.
func (s *Server) v1Entry(endpoint string, h entryHandler) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Deprecation", `version="v1"`)
		w.Header().Set("Link", `</v2/models/`+hsmodel.DefaultModelID+`>; rel="successor-version"`)
		rec := &statusRecorder{ResponseWriter: w, code: http.StatusOK}
		h(rec, r, s.def)
		s.metrics.observeModelRequest(hsmodel.DefaultModelID, endpoint, rec.code)
	}
}

// v2Entry resolves the {id} path value — an exact entry id or the
// "app:<name>" consistent-hash alias — instruments the request, and feeds
// the per-model request counter.
func (s *Server) v2Entry(endpoint string, h entryHandler) http.HandlerFunc {
	return s.instrument(endpoint, func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		e, ok := s.reg.Resolve(id)
		if !ok {
			writeError(w, fmt.Errorf("%w: %q", registry.ErrNotFound, id))
			return
		}
		rec := &statusRecorder{ResponseWriter: w, code: http.StatusOK}
		h(rec, r, e)
		s.metrics.observeModelRequest(e.ID(), endpoint, rec.code)
	})
}

// statusRecorder captures the response code for the request counters.
type statusRecorder struct {
	http.ResponseWriter
	code int
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
	case errors.Is(err, ErrClosed), errors.Is(err, registry.ErrClosed):
		code = http.StatusServiceUnavailable
	case errors.Is(err, ErrOverloaded), errors.Is(err, registry.ErrOverloaded):
		// Shed, not queued: tell well-behaved clients when to come back.
		w.Header().Set("Retry-After", "1")
		code = http.StatusTooManyRequests
	case errors.Is(err, registry.ErrNotFound):
		code = http.StatusNotFound
	case errors.Is(err, registry.ErrExists):
		code = http.StatusConflict
	case errors.Is(err, context.DeadlineExceeded):
		code = http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		code = 499 // client closed request
	}
	writeJSON(w, code, hsmodel.ErrorResponse{Error: err.Error()})
}

func decodeJSON(r *http.Request, v any) error {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("serve: decoding request: %w", err)
	}
	return nil
}

// Predict answers one shard prediction through the default entry — the same
// registry admission check and micro-batcher as POST /v1/predict, minus
// HTTP. The benchmark's in-process probes call it.
func (s *Server) Predict(ctx context.Context, x profile.Characteristics, hw hwspace.Config) (float64, error) {
	return s.def.Predict(ctx, x, hw)
}

// PredictMany answers a whole batch as one batcher submission on the default
// entry, after the same admission check as POST /v1/predict:batch: out[i]
// answers (xs[i], hws[i]); len(hws) and len(out) must be at least len(xs).
// One queue round trip covers the entire batch, and the worker answers it
// through contiguous Snapshot.PredictBatch sweeps. On a ctx error the out
// buffer must be discarded.
func (s *Server) PredictMany(ctx context.Context, xs []profile.Characteristics, hws []hwspace.Config, out []float64) error {
	return s.def.PredictMany(ctx, xs, hws, out)
}

// predictOne answers one wire PredictRequest against an entry: single shards
// go through the entry's micro-batcher; whole-application queries aggregate
// over one snapshot load.
func (s *Server) predictOne(ctx context.Context, e *registry.Entry, req hsmodel.PredictRequest) (hsmodel.PredictResponse, error) {
	xs, hw, err := req.ShardInputs()
	if err != nil {
		return hsmodel.PredictResponse{}, err
	}
	if len(xs) == 1 && len(req.Shards) == 0 {
		cpi, err := e.Predict(ctx, xs[0], hw)
		if err != nil {
			return hsmodel.PredictResponse{}, err
		}
		return hsmodel.PredictResponse{CPI: cpi, Shards: 1}, nil
	}
	cpi, err := e.Trainer().Snapshot().PredictApplication(xs, hw)
	if err != nil {
		return hsmodel.PredictResponse{}, err
	}
	return hsmodel.PredictResponse{CPI: cpi, Shards: len(xs)}, nil
}

func (s *Server) handlePredict(w http.ResponseWriter, r *http.Request, e *registry.Entry) {
	var req hsmodel.PredictRequest
	if err := decodeJSON(r, &req); err != nil {
		writeError(w, err)
		return
	}
	resp, err := s.predictOne(r.Context(), e, req)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request, e *registry.Entry) {
	var req hsmodel.BatchPredictRequest
	if err := decodeJSON(r, &req); err != nil {
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
	// HTTP requests). Whole-application items aggregate over one snapshot
	// load, as in predictOne.
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
		cpi, err := e.Trainer().Snapshot().PredictApplication(shardXs, hw)
		if err != nil {
			results[i] = hsmodel.BatchPredictItem{Error: err.Error()}
			continue
		}
		results[i] = hsmodel.BatchPredictItem{CPI: cpi, Shards: len(shardXs)}
	}
	if len(xs) > 0 {
		out := make([]float64, len(xs))
		if err := e.PredictMany(r.Context(), xs, hws, out); err != nil {
			for _, i := range idx {
				results[i] = hsmodel.BatchPredictItem{Error: err.Error()}
			}
		} else {
			for k, i := range idx {
				results[i] = hsmodel.BatchPredictItem{CPI: out[k], Shards: 1}
			}
		}
	}
	writeJSON(w, http.StatusOK, hsmodel.BatchPredictResponse{Results: results})
}

// decodeSamples converts a wire samples body into core samples.
func decodeSamples(r *http.Request) (hsmodel.SamplesRequest, []core.Sample, error) {
	var req hsmodel.SamplesRequest
	if err := decodeJSON(r, &req); err != nil {
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

// handleSamples is the v1 route: samples fan out to EVERY registered entry
// whose application scope matches each sample (the default entry's wildcard
// scope absorbs all of them — on a single-model server this is exactly the
// old behavior), and the acknowledgement reports the default entry's store.
func (s *Server) handleSamples(w http.ResponseWriter, r *http.Request, e *registry.Entry) {
	req, samples, err := decodeSamples(r)
	if err != nil {
		writeError(w, err)
		return
	}
	s.reg.Submit(samples)
	s.metrics.samplesAccepted.Add(uint64(len(samples)))
	resp := hsmodel.SamplesResponse{
		Accepted:     len(samples),
		TotalSamples: e.Trainer().NumSamples(),
	}
	if req.Update {
		resp.UpdateStarted = s.triggerUpdate(e)
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleV2Samples is the model-addressed route: samples feed only the
// addressed entry, unless fan_out restores the registry-wide v1 semantics
// (the response then lists every model that absorbed samples).
func (s *Server) handleV2Samples(w http.ResponseWriter, r *http.Request, e *registry.Entry) {
	req, samples, err := decodeSamples(r)
	if err != nil {
		writeError(w, err)
		return
	}
	resp := hsmodel.SamplesResponse{Accepted: len(samples)}
	if req.FanOut {
		resp.Models = s.reg.Submit(samples)
	} else {
		e.Absorb(samples)
	}
	s.metrics.samplesAccepted.Add(uint64(len(samples)))
	resp.TotalSamples = e.Trainer().NumSamples()
	if req.Update {
		resp.UpdateStarted = s.triggerUpdate(e)
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleLifecycle reports an entry's control loop status; 404 when the loop
// is not enabled so probes can distinguish "disabled" from "unhealthy".
func (s *Server) handleLifecycle(w http.ResponseWriter, r *http.Request, e *registry.Entry) {
	lc := e.Lifecycle()
	if lc == nil {
		writeJSON(w, http.StatusNotFound, hsmodel.ErrorResponse{Error: "serve: lifecycle loop not enabled"})
		return
	}
	writeJSON(w, http.StatusOK, lc.Status())
}

// triggerUpdate starts one asynchronous re-specification of the entry if
// none is in flight. The Trainer's snapshot semantics make the failure path
// safe: an update that errors leaves the served snapshot untouched.
func (s *Server) triggerUpdate(e *registry.Entry) bool {
	id := e.ID()
	started := e.TriggerUpdate(s.cfg.UpdateTimeout, func(err error) {
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

// modelInfo assembles the wire ModelInfo for an entry. The v1 route passes
// addressed=false so the body stays bit-identical to the single-model
// server; v2 additionally stamps the model address fields.
func (s *Server) modelInfo(e *registry.Entry, addressed bool) hsmodel.ModelInfo {
	pub := e.Trainer().Published()
	snap := pub.Snapshot
	info := hsmodel.ModelInfo{
		TotalSamples:    e.Trainer().NumSamples(),
		SnapshotVersion: pub.Generation,
		SnapshotAgeSec:  time.Since(pub.At).Seconds(),
	}
	if addressed {
		info.Model = e.ID()
		info.Application = e.Application()
		info.ArchSpace = e.ArchSpace()
	}
	if snap.Trained() {
		desc := snap.Describe()
		info.Trained = true
		info.Family = snap.Family()
		info.FamilyScores = snap.FamilyScores()
		info.Spec = desc.Spec
		info.Terms = desc.Terms
		info.Detail = desc.Detail
		info.Rung = snap.Rung().String()
		info.TrainedRows = snap.TrainedRows()
		info.ShardLen = snap.ShardLen()
	}
	st := e.Trainer().FitPathStats()
	info.GramFits, info.QRFallbacks = st.GramFits, st.QRFallbacks
	return info
}

func (s *Server) handleModel(w http.ResponseWriter, r *http.Request, e *registry.Entry) {
	writeJSON(w, http.StatusOK, s.modelInfo(e, false))
}

func (s *Server) handleV2Model(w http.ResponseWriter, r *http.Request, e *registry.Entry) {
	writeJSON(w, http.StatusOK, s.modelInfo(e, true))
}

// modelStatus summarizes one entry for the registry listing and the scrape.
func (s *Server) modelStatus(e *registry.Entry) hsmodel.ModelStatus {
	pub := e.Trainer().Published()
	snap := pub.Snapshot
	spec := e.Spec()
	ms := hsmodel.ModelStatus{
		ID:              e.ID(),
		Application:     e.Application(),
		ArchSpace:       e.ArchSpace(),
		Trained:         snap.Trained(),
		TotalSamples:    e.Trainer().NumSamples(),
		SnapshotVersion: pub.Generation,
		QueueDepth:      e.QueueDepth(),
		ModelPath:       spec.ModelPath,
		Families:        spec.Families,
	}
	if snap.Trained() {
		ms.Family = snap.Family()
		ms.Rung = snap.Rung().String()
		ms.TrainedRows = snap.TrainedRows()
	}
	if lc := e.Lifecycle(); lc != nil {
		ms.Lifecycle = lc.Status().State
	}
	return ms
}

func (s *Server) handleModels(w http.ResponseWriter, r *http.Request) {
	entries := s.reg.Entries()
	status := hsmodel.RegistryStatus{
		Models:     make([]hsmodel.ModelStatus, len(entries)),
		QueueDepth: s.reg.QueueDepth(),
		QueueBound: s.cfg.QueueBound,
		Default:    hsmodel.DefaultModelID,
	}
	for i, e := range entries {
		status.Models[i] = s.modelStatus(e)
	}
	writeJSON(w, http.StatusOK, status)
}

func (s *Server) handleRegister(w http.ResponseWriter, r *http.Request) {
	var req hsmodel.RegisterRequest
	if err := decodeJSON(r, &req); err != nil {
		writeError(w, err)
		return
	}
	if req.ID == "" {
		writeError(w, errors.New("serve: register request needs a model id"))
		return
	}
	if req.ID == hsmodel.DefaultModelID {
		writeError(w, fmt.Errorf("serve: model id %q is reserved for the v1 alias entry", hsmodel.DefaultModelID))
		return
	}
	e, err := s.reg.Register(specFromWire(req))
	if err != nil {
		writeError(w, err)
		return
	}
	s.cfg.Logger.Printf("serve: registered model %q (app %q)", e.ID(), e.Application())
	writeJSON(w, http.StatusCreated, s.modelStatus(e))
}

func (s *Server) handleUnregister(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if id == hsmodel.DefaultModelID {
		writeError(w, fmt.Errorf("serve: the reserved %q entry cannot be unregistered", hsmodel.DefaultModelID))
		return
	}
	if err := s.reg.Unregister(id); err != nil {
		writeError(w, err)
		return
	}
	s.cfg.Logger.Printf("serve: unregistered model %q", id)
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"status":  "ok",
		"trained": s.def.Trainer().Trained(),
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	pub := s.def.Trainer().Published()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	var lc *lifecycleState
	if defLC := s.def.Lifecycle(); defLC != nil {
		st := defLC.Status()
		lc = &st
	}
	entries := s.reg.Entries()
	reg := &registryScrape{
		depth:  s.reg.QueueDepth(),
		bound:  s.cfg.QueueBound,
		models: make([]modelScrape, len(entries)),
	}
	for i, e := range entries {
		epub := e.Trainer().Published()
		m := modelScrape{
			id:        e.ID(),
			trained:   epub.Snapshot.Trained(),
			version:   epub.Generation,
			samples:   e.Trainer().NumSamples(),
			queued:    e.QueueDepth(),
			evalCache: e.Trainer().EvalCacheActive(),
		}
		if m.trained {
			m.trainedRows = epub.Snapshot.TrainedRows()
		}
		reg.models[i] = m
	}
	s.metrics.writeTo(w, snapshotState{
		version: pub.Generation,
		age:     time.Since(pub.At),
		trained: pub.Snapshot.Trained(),
		family:  pub.Snapshot.Family(),
	}, lc, reg)
}

// batchMean exposes the observed mean coalesced-batch size (tests assert
// coalescing happens).
func (s *Server) batchMean() float64 { return s.metrics.batchSize.mean() }
