// The model registry: a concurrent collection of named model entries keyed
// by (application, architecture-space). Each entry owns its own trainer (and
// therefore its own atomic core.Snapshot), its own micro-batcher, and an
// optional continuous-learning controller. The registry routes work across
// entries two ways:
//
//   - resolve pins model-addressed requests ("/v2/models/{id}/...") to their
//     entry, accepting an "app:<name>" alias that reaches the model built
//     for that application (the lowest-id entry scoped to it, else the
//     lowest-id wildcard entry) — a function of the registered ids and
//     scopes alone, so unregistering an entry moves only the aliases that
//     pointed at it.
//   - submit fans a profile stream out to every entry whose application
//     scope matches each sample — the paper's §2.1 insight that shard
//     profiles are shared between applications, operationalized: one
//     ingested profile feeds many training sets.
//
// Load shedding is per entry: each batcher's bounded queue rejects the
// predict:batch jobs it cannot hold. Other predictions answer on their own
// request (entry.predict) and are never queued.
package serve

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hsmodel/internal/core"
	"hsmodel/internal/family"
	"hsmodel/internal/genetic"
	"hsmodel/internal/hwspace"
	"hsmodel/internal/lifecycle"
	"hsmodel/internal/profile"
	"hsmodel/pkg/hsmodel"
)

// Registry failure modes, matched with errors.Is. Their texts reach clients
// in wire error bodies.
var (
	// errNotFound is returned for an unknown model id (HTTP 404).
	errNotFound = errors.New("registry: model not found")
	// errExists is returned by register for a duplicate model id (HTTP 409).
	errExists = errors.New("registry: model already registered")
	// errModelLoad wraps snapshot-load failures during register.
	errModelLoad = errors.New("registry: loading model snapshot")
	// errLifecycleNoModel refuses an entry that attaches a control loop to
	// an untrained trainer with no ModelPath to load one from: the loop
	// observes drift only through a trained snapshot and refuses
	// update:true, so nothing would ever train it.
	errLifecycleNoModel = errors.New("registry: a lifecycle entry needs a trained model or a model path")
	// errRegistryFull refuses an entry past maxEntries (HTTP 507).
	errRegistryFull = errors.New("registry: model registry full")
)

// maxEntries caps the registered entries, the reserved "default" included:
// each one holds a trainer, a profile store of up to core.MaxStoreRows rows
// and a batcher goroutine. The README's fleet and the serving tests' fleets
// have at most 5 entries, and one entry per SPEC2006 application plus a
// wildcard and "default" is 9.
const maxEntries = 64

// defaultArchSpace names the architecture space every entry models — the
// paper's Table 2 design space. A registration may name it or leave it
// empty; any other space is refused, since no entry could model it.
const defaultArchSpace = "table2"

// registry holds the server's model entries. Create with newRegistry,
// populate with register/registerTrainer, and drain with close.
type registry struct {
	// batch is the template of every entry's batcher; registerTrainer sets
	// its snap to the entry trainer's snapshot.
	batch batcherConfig

	// baseCtx bounds every asynchronous update the registry's entries start;
	// cancelAll fires in close so a shutdown never sits out a training
	// timeout it cannot interrupt.
	baseCtx   context.Context
	cancelAll context.CancelFunc

	mu      sync.RWMutex
	entries map[string]*entry
	closed  bool
}

// newRegistry builds an empty registry whose entries predict through
// batchers configured like batch.
func newRegistry(batch batcherConfig) *registry {
	ctx, cancel := context.WithCancel(context.Background())
	return &registry{
		batch:     batch,
		baseCtx:   ctx,
		cancelAll: cancel,
		entries:   make(map[string]*entry),
	}
}

// register creates an entry from a wire registration: a fresh trainer
// configured from req (families resolved by name, snapshot adopted from
// ModelPath when set) and a lifecycle controller when req asks for one. The
// request is checked before ModelPath is opened, so a refused registration
// never reads the file.
func (r *registry) register(req hsmodel.RegisterRequest) (*entry, error) {
	req, err := checkRequest(req)
	if err != nil {
		return nil, err
	}
	tr, err := trainerFor(req)
	if err != nil {
		return nil, err
	}
	var lc *lifecycle.Config
	if w := req.Lifecycle; w != nil {
		lc = &lifecycle.Config{
			MinProfiles:     w.MinProfiles,
			CanaryTolerance: w.CanaryTolerance,
			Seed:            w.Seed,
		}
		lc.Drift.Threshold = w.DriftThreshold
	}
	return r.registerTrainer(req, lc, tr)
}

// An entry's id is 1 to maxModelIDLen of modelIDChars, one rule for the
// wire and a manifest alike: every id is then a plain label on /metrics and
// in logs, and ':' stays free for "app:" aliases.
const (
	modelIDChars  = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789._-"
	maxModelIDLen = 64
)

// checkRequest applies the registration rules that need no trainer: the id
// rule, the architecture space (returned defaulted) and non-negative search
// sizes and shard length (0 means the default).
func checkRequest(req hsmodel.RegisterRequest) (hsmodel.RegisterRequest, error) {
	if len(req.ID) == 0 || len(req.ID) > maxModelIDLen || strings.Trim(req.ID, modelIDChars) != "" {
		return req, fmt.Errorf("registry: model id %q: want 1 to 64 characters of A-Z, a-z, 0-9, '.', '_' and '-'", req.ID)
	}
	switch req.ArchSpace {
	case "":
		req.ArchSpace = defaultArchSpace
	case defaultArchSpace:
	default:
		return req, fmt.Errorf("registry: unknown architecture space %q (have %q)", req.ArchSpace, defaultArchSpace)
	}
	for _, f := range []struct {
		name string
		v    int
	}{{"population", req.Population}, {"generations", req.Generations}, {"shard_len", req.ShardLen}} {
		if f.v < 0 {
			return req, fmt.Errorf("registry: %s %d: want 0 (the default) or more", f.name, f.v)
		}
	}
	return req, nil
}

// registerTrainer registers an entry around an existing trainer, with a
// control loop configured by lc when it is non-nil — the server registers
// its bootstrap trainer as the reserved "default" entry this way. The
// request must pass checkRequest, and the trainer must not already be
// registered. A control loop needs a trained trainer or a ModelPath the
// caller loads from (errLifecycleNoModel).
func (r *registry) registerTrainer(req hsmodel.RegisterRequest, lc *lifecycle.Config, tr *core.Trainer) (*entry, error) {
	// register has already checked a wire or manifest request (before
	// opening its ModelPath); this check is the bootstrap "default" entry's.
	req, err := checkRequest(req)
	if err != nil {
		return nil, err
	}
	if lc != nil && req.ModelPath == "" && !tr.Snapshot().Trained() {
		return nil, fmt.Errorf("%w: %q", errLifecycleNoModel, req.ID)
	}
	e := &entry{req: req, trainer: tr}
	e.ctx, e.cancel = context.WithCancel(r.baseCtx)
	if lc != nil {
		e.lifecycle = lifecycle.NewController(tr, *lc)
	}
	bc := r.batch
	bc.snap = tr.Snapshot
	e.batcher = newBatcher(bc)

	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		e.close()
		return nil, ErrClosed
	}
	if _, ok := r.entries[req.ID]; ok {
		r.mu.Unlock()
		e.close()
		return nil, fmt.Errorf("%w: %q", errExists, req.ID)
	}
	if len(r.entries) >= maxEntries {
		r.mu.Unlock()
		e.close()
		return nil, fmt.Errorf("%w: %d entries, refusing %q", errRegistryFull, maxEntries, req.ID)
	}
	r.entries[req.ID] = e
	r.mu.Unlock()
	return e, nil
}

// trainerFor builds and configures the trainer of a checked registration
// (checkRequest).
func trainerFor(req hsmodel.RegisterRequest) (*core.Trainer, error) {
	tr := core.NewTrainer(nil)
	tr.ShardLen = req.ShardLen
	tr.Search = genetic.Params{
		PopulationSize: req.Population,
		Generations:    req.Generations,
		Seed:           req.Seed,
	}
	tr.Fitness.Seed = req.Seed
	if len(req.Families) > 0 {
		fams := make([]family.Family, len(req.Families))
		for i, name := range req.Families {
			fam := core.FamilyByName(name)
			if fam == nil {
				return nil, fmt.Errorf("registry: unknown model family %q", name)
			}
			fams[i] = fam
		}
		tr.Families = fams
	}
	if req.ModelPath != "" {
		snap, err := core.LoadSnapshot(req.ModelPath)
		if err != nil {
			return nil, fmt.Errorf("%w: %s: %w", errModelLoad, req.ModelPath, err)
		}
		tr.Adopt(snap)
	}
	return tr, nil
}

// unregister removes and drains the entry, cancelling its in-flight update
// (the trainer keeps its served snapshot). Aliases that resolved to other
// entries keep resolving to them; only those that pointed at the removed
// entry move.
func (r *registry) unregister(id string) error {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return ErrClosed
	}
	e, ok := r.entries[id]
	if !ok {
		r.mu.Unlock()
		return fmt.Errorf("%w: %q", errNotFound, id)
	}
	delete(r.entries, id)
	r.mu.Unlock()

	e.close()
	return nil
}

// resolve maps a wire model address to an entry. An exact id wins;
// otherwise "app:<name>" resolves to the lowest-id entry whose Application
// is <name>, failing that to the lowest-id wildcard entry (Application ""),
// failing that to nothing. The answer depends only on the registered ids and
// scopes, so unregistering an entry moves only the aliases that pointed at
// it.
func (r *registry) resolve(addr string) (*entry, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if e, ok := r.entries[addr]; ok {
		return e, true
	}
	app, ok := strings.CutPrefix(addr, "app:")
	if !ok {
		return nil, false
	}
	var scoped, wildcard *entry
	for id, e := range r.entries {
		switch e.req.Application {
		case app:
			if scoped == nil || id < scoped.req.ID {
				scoped = e
			}
		case "":
			if wildcard == nil || id < wildcard.req.ID {
				wildcard = e
			}
		}
	}
	if scoped != nil {
		return scoped, true
	}
	return wildcard, wildcard != nil
}

// list returns every registered entry, sorted by id.
func (r *registry) list() []*entry {
	r.mu.RLock()
	out := make([]*entry, 0, len(r.entries))
	for _, e := range r.entries {
		out = append(out, e)
	}
	r.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].req.ID < out[j].req.ID })
	return out
}

// submit fans samples out to every entry whose application scope matches
// each sample — one submitted profile advances the sample store of every
// matching model. It returns the sorted ids of the entries that absorbed at
// least one sample; an entry whose store is full absorbs none.
func (r *registry) submit(samples []core.Sample) []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	var touched []string
	var scratch []core.Sample
	for id, e := range r.entries {
		scratch = scratch[:0]
		for _, s := range samples {
			if e.matches(s.App) {
				scratch = append(scratch, s)
			}
		}
		if len(scratch) == 0 {
			continue
		}
		if e.absorb(scratch) != nil {
			continue
		}
		touched = append(touched, id)
	}
	sort.Strings(touched)
	return touched
}

// close drains the registry: in-flight updates are cancelled (their
// trainers observe context cancellation and keep the last-good snapshot),
// every entry's batcher answers the jobs it accepted, and every control loop
// shuts down. Safe to call more than once.
func (r *registry) close() {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return
	}
	r.closed = true
	r.cancelAll()
	entries := make([]*entry, 0, len(r.entries))
	for _, e := range r.entries {
		entries = append(entries, e)
	}
	r.entries = make(map[string]*entry)
	r.mu.Unlock()

	for _, e := range entries {
		e.close()
	}
}

// entry is one registered model: a trainer owning its atomic snapshot, the
// batcher its predict:batch traffic pins to, an optional continuous-learning
// controller sharing the entry's sample stream, and one-at-a-time
// asynchronous updates. The served model's identity (generation, publish
// time) is the trainer's Published record.
type entry struct {
	// req is the registration with ArchSpace defaulted: the entry's address
	// fields, and its manifest element.
	req       hsmodel.RegisterRequest
	trainer   *core.Trainer
	lifecycle *lifecycle.Controller // nil unless the entry has a control loop
	batcher   *batcher
	// closed is set first thing in close: a direct prediction that reads it
	// set answers ErrClosed, as a submission to the closed batcher does.
	closed atomic.Bool

	// ctx bounds the entry's asynchronous updates; it derives from the
	// registry's lifetime and close cancels it, so neither unregister nor
	// the registry's close waits out a training run.
	ctx      context.Context
	cancel   context.CancelFunc
	updating atomic.Bool    // one asynchronous update at a time
	updateWG sync.WaitGroup // close waits for the in-flight one
}

// matches reports whether the entry's application scope covers app.
func (e *entry) matches(app string) bool {
	return e.req.Application == "" || e.req.Application == app
}

// absorb feeds samples into the entry's store: through the control loop's
// bounded stores when the entry has one, directly into the trainer
// otherwise, which refuses the whole batch with core.ErrStoreFull when it
// would overflow the store.
func (e *entry) absorb(samples []core.Sample) error {
	if e.lifecycle == nil {
		return e.trainer.AddSamples(samples)
	}
	e.lifecycle.Submit(samples...)
	return nil
}

// triggerUpdate starts one asynchronous re-specification of the entry's
// model (a Trainer.Train run, stepwise fallback included) if none is in
// flight, bounded by timeout and by the entry's lifetime (unregister and the
// registry's close cancel the update's context, so neither waits out a
// training timeout). onDone (optional) receives the
// outcome; a failed or cancelled update never replaces the served snapshot.
// An entry with a control loop refuses: its samples feed the loop, not the
// trainer, and the loop publishes only canary-checked candidates.
func (e *entry) triggerUpdate(timeout time.Duration, onDone func(error)) bool {
	if e.lifecycle != nil || !e.updating.CompareAndSwap(false, true) {
		return false
	}
	e.updateWG.Add(1)
	go func() {
		defer e.updateWG.Done()
		defer e.updating.Store(false)
		ctx, cancel := context.WithTimeout(e.ctx, timeout)
		defer cancel()
		err := e.trainer.Train(ctx)
		if onDone != nil {
			onDone(err)
		}
	}()
	return true
}

// predict answers a prediction on the calling goroutine against one
// snapshot load: a single shard through Snapshot.PredictShard (0 allocations
// once warm), several as their whole application's mean
// (Snapshot.PredictApplication). After close it answers ErrClosed.
func (e *entry) predict(xs []profile.Characteristics, hw hwspace.Config) (float64, error) {
	if e.closed.Load() {
		return 0, ErrClosed
	}
	snap := e.trainer.Snapshot()
	if len(xs) == 1 {
		return snap.PredictShard(xs[0], hw)
	}
	return snap.PredictApplication(xs, hw)
}

// close drains the entry: later predictions answer ErrClosed, the in-flight
// update (if any) is cancelled and waited for, the batcher answers the jobs
// it accepted, and the control loop shuts down.
func (e *entry) close() {
	e.closed.Store(true)
	e.cancel()
	e.batcher.Close()
	e.updateWG.Wait()
	if e.lifecycle != nil {
		e.lifecycle.Close()
	}
}
