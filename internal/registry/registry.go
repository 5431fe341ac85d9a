// Package registry is the multi-model serving core: a concurrent registry
// of named model entries keyed by (application, architecture-space). Each
// entry owns its own trainer (and therefore its own atomic core.Snapshot),
// its own prediction batcher, and an optional continuous-learning
// controller. The registry routes work across entries two ways:
//
//   - Resolve pins model-addressed requests ("/v2/models/{id}/...") to their
//     entry, accepting an "app:<name>" alias that reaches the model built
//     for that application (the lowest-id entry scoped to it, else the
//     lowest-id wildcard entry) — a function of the registered ids and
//     scopes alone, so unregistering an entry moves only the aliases that
//     pointed at it.
//   - Submit fans a profile stream out to every entry whose application
//     scope matches each sample — the paper's §2.1 insight that shard
//     profiles are shared between applications, operationalized: one
//     ingested profile feeds many training sets.
//
// Load shedding is per entry: each batcher's bounded queue rejects what it
// cannot hold.
package registry

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"

	"hsmodel/internal/core"
	"hsmodel/internal/family"
	"hsmodel/internal/genetic"
	"hsmodel/internal/lifecycle"
)

// Sentinel errors callers branch on with errors.Is.
var (
	// ErrNotFound is returned for an unknown model id.
	ErrNotFound = errors.New("registry: model not found")
	// ErrExists is returned by Register for a duplicate model id.
	ErrExists = errors.New("registry: model already registered")
	// ErrClosed is returned once the registry has shut down.
	ErrClosed = errors.New("registry: registry is closed")
	// ErrModelLoad wraps snapshot-load failures during Register.
	ErrModelLoad = errors.New("registry: loading model snapshot")
	// ErrLifecycleNoModel is returned by RegisterTrainer for a spec that
	// attaches a control loop to an untrained trainer with no ModelPath to
	// load one from: the loop observes drift only through a trained
	// snapshot and refuses update:true, so nothing would ever train it.
	ErrLifecycleNoModel = errors.New("registry: a lifecycle entry needs a trained model or a model path")
)

// DefaultArchSpace names the architecture space entries model unless the
// spec says otherwise — the paper's Table 2 design space.
const DefaultArchSpace = "table2"

// Spec declares one model entry; it is the in-process form of the wire
// RegisterRequest and of one manifest element.
type Spec struct {
	// ID is the registry key (required; "default" is reserved by the serving
	// layer for its own trainer's entry).
	ID string
	// Application scopes the entry's sample fan-out: only samples whose App
	// matches are absorbed. Empty matches every application.
	Application string
	// ArchSpace names the architecture space (default "table2").
	ArchSpace string
	// ModelPath, when non-empty, is a persisted snapshot adopted at
	// registration (and the path hot reloads serve from).
	ModelPath string
	// Families lists model families for per-entry selection rounds; empty
	// keeps the classic reference-spline engine.
	Families []string
	// Seed determinizes the entry's search and fitness splits.
	Seed uint64
	// ShardLen is recorded in published snapshots (0 = DefaultShardLen).
	ShardLen int
	// Population / Generations bound the entry's genetic search (0 = the
	// search's defaults).
	Population  int
	Generations int
	// Lifecycle, when non-nil, attaches a continuous-learning controller to
	// the entry.
	Lifecycle *lifecycle.Config
}

func (s Spec) withDefaults() Spec {
	if s.ArchSpace == "" {
		s.ArchSpace = DefaultArchSpace
	}
	return s
}

// Config configures a Registry. Every field is optional.
type Config struct {
	// NewBatcher builds the prediction path of a new entry; nil uses the
	// direct (unbatched) snapshot predictor.
	NewBatcher func(e *Entry) Batcher
	// OnChange, when non-nil, fires after every successful Register or
	// Unregister (the serving layer persists its manifest here). It is
	// called without the registry lock held.
	OnChange func()
}

// Registry is a concurrent collection of model entries with scope-based
// alias routing and shared-profile fan-out.
// Create with New, populate with Register/RegisterTrainer, and drain with
// Close.
type Registry struct {
	cfg Config

	// baseCtx bounds every asynchronous update the registry's entries start;
	// cancelAll fires in Close so a shutdown never sits out a training
	// timeout it cannot interrupt.
	baseCtx   context.Context
	cancelAll context.CancelFunc

	mu      sync.RWMutex
	entries map[string]*Entry
	closed  bool
}

// New builds an empty registry.
func New(cfg Config) *Registry {
	ctx, cancel := context.WithCancel(context.Background())
	return &Registry{
		cfg:       cfg,
		baseCtx:   ctx,
		cancelAll: cancel,
		entries:   make(map[string]*Entry),
	}
}

// Register creates an entry from spec: a fresh trainer configured from the
// spec (families resolved by name, snapshot adopted from ModelPath when
// set), a lifecycle controller when requested, and a batcher from
// Config.NewBatcher.
func (r *Registry) Register(spec Spec) (*Entry, error) {
	tr, err := trainerFromSpec(spec)
	if err != nil {
		return nil, err
	}
	return r.RegisterTrainer(spec, tr)
}

// RegisterTrainer registers an entry around an existing trainer — the
// serving layer uses it to register its bootstrap trainer as the reserved
// "default" entry. The trainer must not already be registered. A spec with
// a Lifecycle needs a trained trainer or a ModelPath the caller loads from
// (ErrLifecycleNoModel).
func (r *Registry) RegisterTrainer(spec Spec, tr *core.Trainer) (*Entry, error) {
	spec = spec.withDefaults()
	if spec.ID == "" {
		return nil, errors.New("registry: spec needs a model id")
	}
	if spec.Lifecycle != nil && spec.ModelPath == "" && !tr.Trained() {
		return nil, fmt.Errorf("%w: %q", ErrLifecycleNoModel, spec.ID)
	}
	e := &Entry{spec: spec, trainer: tr}
	e.ctx, e.cancel = context.WithCancel(r.baseCtx)
	if spec.Lifecycle != nil {
		e.lifecycle = lifecycle.NewController(tr, *spec.Lifecycle)
	}
	if r.cfg.NewBatcher != nil {
		e.batcher = r.cfg.NewBatcher(e)
	} else {
		e.batcher = directBatcher{snap: tr.Snapshot}
	}

	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		e.close()
		return nil, ErrClosed
	}
	if _, ok := r.entries[spec.ID]; ok {
		r.mu.Unlock()
		e.close()
		return nil, fmt.Errorf("%w: %q", ErrExists, spec.ID)
	}
	r.entries[spec.ID] = e
	r.mu.Unlock()

	if r.cfg.OnChange != nil {
		r.cfg.OnChange()
	}
	return e, nil
}

// trainerFromSpec builds and configures the entry's trainer.
func trainerFromSpec(spec Spec) (*core.Trainer, error) {
	tr := core.NewTrainer(nil)
	tr.ShardLen = spec.ShardLen
	tr.Search = genetic.Params{
		PopulationSize: spec.Population,
		Generations:    spec.Generations,
		Seed:           spec.Seed,
	}
	tr.Fitness.Seed = spec.Seed
	if len(spec.Families) > 0 {
		fams := make([]family.Family, len(spec.Families))
		for i, name := range spec.Families {
			fam := core.FamilyByName(name)
			if fam == nil {
				return nil, fmt.Errorf("registry: unknown model family %q", name)
			}
			fams[i] = fam
		}
		tr.Families = fams
	}
	if spec.ModelPath != "" {
		snap, err := core.LoadSnapshot(spec.ModelPath)
		if err != nil {
			return nil, fmt.Errorf("%w: %s: %w", ErrModelLoad, spec.ModelPath, err)
		}
		tr.Adopt(snap)
	}
	return tr, nil
}

// Unregister removes and drains the entry, cancelling its in-flight update
// (the trainer keeps its served snapshot). Aliases that resolved to other
// entries keep resolving to them; only those that pointed at the removed
// entry move.
func (r *Registry) Unregister(id string) error {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return ErrClosed
	}
	e, ok := r.entries[id]
	if !ok {
		r.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrNotFound, id)
	}
	delete(r.entries, id)
	r.mu.Unlock()

	e.close()
	if r.cfg.OnChange != nil {
		r.cfg.OnChange()
	}
	return nil
}

// Get returns the entry registered under id.
func (r *Registry) Get(id string) (*Entry, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	e, ok := r.entries[id]
	return e, ok
}

// Resolve maps a wire model address to an entry. An exact id wins;
// otherwise "app:<name>" resolves to the lowest-id entry whose Application
// is <name>, failing that to the lowest-id wildcard entry (Application ""),
// failing that to nothing. The answer depends only on the registered ids and
// scopes, so unregistering an entry moves only the aliases that pointed at
// it.
func (r *Registry) Resolve(addr string) (*Entry, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if e, ok := r.entries[addr]; ok {
		return e, true
	}
	app, ok := strings.CutPrefix(addr, "app:")
	if !ok {
		return nil, false
	}
	var scoped, wildcard *Entry
	for id, e := range r.entries {
		switch e.spec.Application {
		case app:
			if scoped == nil || id < scoped.spec.ID {
				scoped = e
			}
		case "":
			if wildcard == nil || id < wildcard.spec.ID {
				wildcard = e
			}
		}
	}
	if scoped != nil {
		return scoped, true
	}
	return wildcard, wildcard != nil
}

// Entries returns every registered entry, sorted by id.
func (r *Registry) Entries() []*Entry {
	r.mu.RLock()
	out := make([]*Entry, 0, len(r.entries))
	for _, e := range r.entries {
		out = append(out, e)
	}
	r.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].spec.ID < out[j].spec.ID })
	return out
}

// Specs returns the registration specs of every entry, sorted by id — the
// serving layer's manifest persistence source.
func (r *Registry) Specs() []Spec {
	entries := r.Entries()
	out := make([]Spec, len(entries))
	for i, e := range entries {
		out[i] = e.spec
	}
	return out
}

// Len reports the number of registered entries.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.entries)
}

// Submit fans samples out to every entry whose application scope matches
// each sample — one submitted profile advances the sample store of every
// matching model. It returns the sorted ids of the entries that absorbed at
// least one sample.
func (r *Registry) Submit(samples []core.Sample) []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	var touched []string
	var scratch []core.Sample
	for id, e := range r.entries {
		scratch = scratch[:0]
		for _, s := range samples {
			if e.Matches(s.App) {
				scratch = append(scratch, s)
			}
		}
		if len(scratch) == 0 {
			continue
		}
		e.Absorb(scratch)
		touched = append(touched, id)
	}
	sort.Strings(touched)
	return touched
}

// QueueDepth sums queued predictions across every entry's batcher.
func (r *Registry) QueueDepth() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	total := 0
	for _, e := range r.entries {
		total += e.batcher.Queued()
	}
	return total
}

// Close drains the registry: in-flight updates are cancelled (their
// trainers observe context cancellation and keep the last-good snapshot),
// every entry's batcher answers what it accepted, and every control loop
// shuts down. Safe to call more than once.
func (r *Registry) Close() {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return
	}
	r.closed = true
	r.cancelAll()
	entries := make([]*Entry, 0, len(r.entries))
	for _, e := range r.entries {
		entries = append(entries, e)
	}
	r.entries = make(map[string]*Entry)
	r.mu.Unlock()

	for _, e := range entries {
		e.close()
	}
}
