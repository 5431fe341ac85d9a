package registry

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hsmodel/internal/core"
	"hsmodel/internal/genetic"
	"hsmodel/internal/lifecycle"
	"hsmodel/internal/regress"
	"hsmodel/internal/trace"
)

// testSamples are collected once: simulation dominates fixture cost and the
// profiles are deterministic in the seed.
var (
	sampleOnce sync.Once
	sampleAll  []core.Sample
)

func testSamples(t testing.TB) []core.Sample {
	t.Helper()
	sampleOnce.Do(func() {
		col := &core.Collector{ShardLen: 20_000, ShardPool: 12}
		apps := []*trace.App{trace.Bzip2(), trace.Hmmer(), trace.Sjeng()}
		sampleAll = col.Collect(apps, 40, 7)
	})
	return sampleAll
}

// trainedTrainer returns a small trainer trained on its own copy of the
// shared store; distinct seeds land on distinct model specifications.
func trainedTrainer(t testing.TB, seed uint64) *core.Trainer {
	t.Helper()
	tr := core.NewTrainer(append([]core.Sample(nil), testSamples(t)...))
	tr.ShardLen = 20_000
	tr.Search = genetic.Params{PopulationSize: 10, Generations: 2, Seed: seed}
	tr.Fitness.Seed = seed
	if err := tr.Train(context.Background()); err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestRegisterResolveUnregister(t *testing.T) {
	r := New(Config{})
	defer r.Close()
	for _, spec := range []Spec{
		{ID: "m-bzip2", Application: "bzip2"},
		{ID: "m-hmmer", Application: "hmmer"},
		{ID: "m-all"},
	} {
		if _, err := r.RegisterTrainer(spec, core.NewTrainer(nil)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := r.RegisterTrainer(Spec{ID: "m-all"}, core.NewTrainer(nil)); !errors.Is(err, ErrExists) {
		t.Fatalf("duplicate register: %v, want ErrExists", err)
	}
	if _, err := r.RegisterTrainer(Spec{}, core.NewTrainer(nil)); err == nil {
		t.Fatal("empty id register succeeded")
	}
	if e, ok := r.Get("m-bzip2"); !ok || e.ID() != "m-bzip2" || e.ArchSpace() != DefaultArchSpace {
		t.Fatalf("Get(m-bzip2) = %v, %v", e, ok)
	}
	if e, ok := r.Resolve("m-hmmer"); !ok || e.ID() != "m-hmmer" {
		t.Fatalf("Resolve by id failed: %v, %v", e, ok)
	}
	if _, ok := r.Resolve("missing"); ok {
		t.Fatal("Resolve invented an entry")
	}

	if err := r.Unregister("m-hmmer"); err != nil {
		t.Fatal(err)
	}
	if err := r.Unregister("m-hmmer"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("double unregister: %v, want ErrNotFound", err)
	}
	if got := len(r.Entries()); got != 2 || r.Len() != 2 {
		t.Fatalf("after unregister: %d entries", got)
	}

	r.Close()
	if _, err := r.RegisterTrainer(Spec{ID: "late"}, core.NewTrainer(nil)); !errors.Is(err, ErrClosed) {
		t.Fatalf("register after close: %v, want ErrClosed", err)
	}
	if err := r.Unregister("m-bzip2"); !errors.Is(err, ErrClosed) {
		t.Fatalf("unregister after close: %v, want ErrClosed", err)
	}
}

// TestRegisterLifecycleNeedsModel: a control loop on an untrained trainer
// with no model path is refused and leaves nothing registered; a trained
// trainer, or a model path the caller loads from, is accepted.
func TestRegisterLifecycleNeedsModel(t *testing.T) {
	r := New(Config{})
	defer r.Close()
	lc := &lifecycle.Config{}
	if _, err := r.RegisterTrainer(Spec{ID: "m-lc", Lifecycle: lc}, core.NewTrainer(nil)); !errors.Is(err, ErrLifecycleNoModel) {
		t.Fatalf("untrained lifecycle entry: err %v, want ErrLifecycleNoModel", err)
	}
	if r.Len() != 0 {
		t.Fatalf("refused entry left %d entries", r.Len())
	}
	if _, err := r.RegisterTrainer(Spec{ID: "m-path", ModelPath: "model.json", Lifecycle: lc}, core.NewTrainer(nil)); err != nil {
		t.Fatalf("untrained lifecycle entry with a model path: %v", err)
	}
	if _, err := r.RegisterTrainer(Spec{ID: "m-trained", Lifecycle: lc}, trainedTrainer(t, 3)); err != nil {
		t.Fatalf("trained lifecycle entry: %v", err)
	}
}

// aliasFleet is the README fleet: two application-scoped entries and two
// wildcard entries.
var aliasFleet = []Spec{
	{ID: "default"},
	{ID: "m-bzip2", Application: "bzip2"},
	{ID: "m-hmmer", Application: "hmmer"},
	{ID: "m-all"},
}

// registerFleet returns a registry holding specs, registered in the order
// given.
func registerFleet(t *testing.T, specs []Spec) *Registry {
	t.Helper()
	r := New(Config{})
	t.Cleanup(r.Close)
	for _, spec := range specs {
		if _, err := r.RegisterTrainer(spec, core.NewTrainer(nil)); err != nil {
			t.Fatal(err)
		}
	}
	return r
}

// resolveID returns the id Resolve picks for addr, or "" when not found.
func resolveID(r *Registry, addr string) string {
	e, ok := r.Resolve(addr)
	if !ok {
		return ""
	}
	return e.ID()
}

// aliasAddrs is every fleet id plus app:<name> aliases for the scoped
// applications, for applications without an entry and for malformed names.
func aliasAddrs() []string {
	addrs := []string{"app:", "app:app:hmmer", "app:m-bzip2", "bzip2", "missing"}
	for _, spec := range aliasFleet {
		addrs = append(addrs, spec.ID)
	}
	for _, app := range []string{"bzip2", "hmmer", "sjeng", "mcf", "gcc"} {
		addrs = append(addrs, "app:"+app)
	}
	for i := 0; i < 50; i++ {
		addrs = append(addrs, fmt.Sprintf("app:key-%d", i))
	}
	return addrs
}

// TestResolveAppAlias pins the alias rule on the README fleet: "app:<name>"
// reaches the entry built for that application, else the lowest-id wildcard
// entry, else nothing.
func TestResolveAppAlias(t *testing.T) {
	r := registerFleet(t, aliasFleet)
	cases := []struct{ addr, want string }{
		{"app:bzip2", "m-bzip2"},
		{"app:hmmer", "m-hmmer"},
		{"app:sjeng", "default"}, // lowest-id wildcard ("default" < "m-all")
		{"m-all", "m-all"},       // exact ids win
		{"m-hmmer", "m-hmmer"},
		{"missing", ""},
		{"app:", "default"},
		{"bzip2", ""},
		{"app:m-bzip2", "default"},
		{"app:app:hmmer", "default"},
	}
	for _, c := range cases {
		if got := resolveID(r, c.addr); got != c.want {
			t.Fatalf("Resolve(%q) = %q, want %q", c.addr, got, c.want)
		}
	}

	// The wildcard fallback is the lowest id still registered.
	if err := r.Unregister("default"); err != nil {
		t.Fatal(err)
	}
	if got := resolveID(r, "app:sjeng"); got != "m-all" {
		t.Fatalf("app:sjeng without default = %q, want m-all", got)
	}

	// With no wildcard entry left, an application without its own entry is
	// not found; one with its own entry still resolves.
	if err := r.Unregister("m-all"); err != nil {
		t.Fatal(err)
	}
	if got := resolveID(r, "app:sjeng"); got != "" {
		t.Fatalf("app:sjeng with no wildcard = %q, want not found", got)
	}
	if got := resolveID(r, "app:bzip2"); got != "m-bzip2" {
		t.Fatalf("app:bzip2 with no wildcard = %q, want m-bzip2", got)
	}

	// Several entries scoped to one application: the lowest id wins.
	if _, err := r.RegisterTrainer(Spec{ID: "a-bzip2", Application: "bzip2"}, core.NewTrainer(nil)); err != nil {
		t.Fatal(err)
	}
	if got := resolveID(r, "app:bzip2"); got != "a-bzip2" {
		t.Fatalf("app:bzip2 with two scoped entries = %q, want a-bzip2", got)
	}
}

// TestRingDeterministicUnderSeed pins that alias routing is a function of
// the registered ids and scopes alone. The name is kept from the seeded hash
// ring the scope rule replaced; with no ring and no seed left, the property
// is that registration order and map iteration order change no answer, while
// changing an entry's scope does.
func TestRingDeterministicUnderSeed(t *testing.T) {
	addrs := aliasAddrs()
	r := registerFleet(t, aliasFleet)
	want := make(map[string]string, len(addrs))
	for _, addr := range addrs {
		want[addr] = resolveID(r, addr)
	}

	n := len(aliasFleet)
	for shift := 1; shift < n; shift++ {
		order := append(append([]Spec(nil), aliasFleet[shift:]...), aliasFleet[:shift]...)
		rot := registerFleet(t, order)
		for _, addr := range addrs {
			// Resolve scans a map: repeat to meet several iteration orders.
			for rep := 0; rep < 4; rep++ {
				if got := resolveID(rot, addr); got != want[addr] {
					t.Fatalf("registration rotated by %d: Resolve(%q) = %q, want %q", shift, addr, got, want[addr])
				}
			}
		}
	}

	// The scopes are part of the input: rescoping m-hmmer to sjeng must move
	// app:hmmer to the wildcard and app:sjeng to m-hmmer.
	rescoped := append([]Spec(nil), aliasFleet...)
	rescoped[2].Application = "sjeng"
	rs := registerFleet(t, rescoped)
	if got := resolveID(rs, "app:hmmer"); got != "default" {
		t.Fatalf("rescoped fleet: app:hmmer = %q, want default", got)
	}
	if got := resolveID(rs, "app:sjeng"); got != "m-hmmer" {
		t.Fatalf("rescoped fleet: app:sjeng = %q, want m-hmmer", got)
	}
}

// TestRingRemovalStability pins the property the registry's rebalance-free
// unregister relies on: removing one entry moves only the addresses that
// resolved to it. The name is kept from the hash ring the scope rule
// replaced; each fleet entry is removed in turn.
func TestRingRemovalStability(t *testing.T) {
	addrs := aliasAddrs()
	for _, gone := range aliasFleet {
		r := registerFleet(t, aliasFleet)
		before := make(map[string]string, len(addrs))
		for _, addr := range addrs {
			before[addr] = resolveID(r, addr)
		}
		if err := r.Unregister(gone.ID); err != nil {
			t.Fatal(err)
		}
		remapped := 0
		for _, addr := range addrs {
			after := resolveID(r, addr)
			if before[addr] == gone.ID {
				remapped++
				if after == gone.ID {
					t.Fatalf("without %s: %q still resolves to the removed entry", gone.ID, addr)
				}
				continue
			}
			if after != before[addr] {
				t.Fatalf("without %s: %q moved %q -> %q although its entry survived", gone.ID, addr, before[addr], after)
			}
		}
		if remapped == 0 {
			t.Fatalf("without %s: no address resolved to the removed entry: the test saw no remapping", gone.ID)
		}
	}

	// Unregistering m-hmmer sends app:hmmer to the wildcard and leaves the
	// other scoped alias alone.
	r := registerFleet(t, aliasFleet)
	if err := r.Unregister("m-hmmer"); err != nil {
		t.Fatal(err)
	}
	if got := resolveID(r, "app:hmmer"); got != "default" {
		t.Fatalf("app:hmmer without m-hmmer = %q, want default", got)
	}
	if got := resolveID(r, "app:bzip2"); got != "m-bzip2" {
		t.Fatalf("app:bzip2 without m-hmmer = %q, want m-bzip2", got)
	}
}

// TestSubmitFanOut pins the fan-out semantics: one submitted profile advances
// the store of every entry whose application scope matches it.
func TestSubmitFanOut(t *testing.T) {
	r := New(Config{})
	defer r.Close()
	specs := []Spec{
		{ID: "m-bzip2", Application: "bzip2"},
		{ID: "m-hmmer", Application: "hmmer"},
		{ID: "m-all"},
	}
	for _, spec := range specs {
		if _, err := r.RegisterTrainer(spec, core.NewTrainer(nil)); err != nil {
			t.Fatal(err)
		}
	}
	samples := testSamples(t)
	perApp := map[string]int{}
	for _, s := range samples {
		perApp[s.App]++
	}
	touched := r.Submit(samples)
	if len(touched) != 3 {
		t.Fatalf("touched %v, want all three entries", touched)
	}
	for _, spec := range specs {
		e, _ := r.Get(spec.ID)
		want := len(samples)
		if spec.Application != "" {
			want = perApp[spec.Application]
		}
		if got := e.Trainer().NumSamples(); got != want {
			t.Fatalf("entry %q absorbed %d samples, want %d", spec.ID, got, want)
		}
	}

	// A sample outside every scoped entry's application touches only the
	// wildcard entry.
	sjeng := make([]core.Sample, 0, 1)
	for _, s := range samples {
		if s.App == "sjeng" {
			sjeng = append(sjeng, s)
			break
		}
	}
	if touched := r.Submit(sjeng); len(touched) != 1 || touched[0] != "m-all" {
		t.Fatalf("sjeng sample touched %v, want only m-all", touched)
	}
}

// TestNoCrossEntrySnapshotLeakage registers three differently-trained entries
// and asserts each serves exactly its own snapshot: pointer-distinct across
// entries, and predictions through the entry bit-identical to direct reads of
// that entry's snapshot.
func TestNoCrossEntrySnapshotLeakage(t *testing.T) {
	r := New(Config{})
	defer r.Close()
	seeds := map[string]uint64{"m-a": 3, "m-b": 4, "m-c": 5}
	snaps := map[string]*core.Snapshot{}
	for id, seed := range seeds {
		tr := trainedTrainer(t, seed)
		if _, err := r.RegisterTrainer(Spec{ID: id}, tr); err != nil {
			t.Fatal(err)
		}
		snaps[id] = tr.Snapshot()
	}
	for a, sa := range snaps {
		for b, sb := range snaps {
			if a != b && sa == sb {
				t.Fatalf("entries %q and %q share a snapshot pointer", a, b)
			}
		}
	}
	s := testSamples(t)[0]
	ctx := context.Background()
	for id := range seeds {
		e, _ := r.Get(id)
		if e.Trainer().Snapshot() != snaps[id] {
			t.Fatalf("entry %q serves a foreign snapshot", id)
		}
		got, err := e.Predict(ctx, s.X, s.HW)
		if err != nil {
			t.Fatal(err)
		}
		want, err := snaps[id].PredictShard(s.X, s.HW)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("entry %q: served %v, own snapshot %v", id, got, want)
		}
	}
}

// TestRegisterUnregisterDuringPredictLoad churns registry membership while
// predict and routing traffic hammers a stable entry — the concurrency
// contract, held under -race.
func TestRegisterUnregisterDuringPredictLoad(t *testing.T) {
	r := New(Config{})
	defer r.Close()
	stable, err := r.RegisterTrainer(Spec{ID: "stable"}, trainedTrainer(t, 3))
	if err != nil {
		t.Fatal(err)
	}
	samples := testSamples(t)
	s := samples[0]
	ctx := context.Background()

	var stop atomic.Bool
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				if _, err := stable.Predict(ctx, s.X, s.HW); err != nil {
					t.Error(err)
					return
				}
				if e, ok := r.Resolve("app:" + s.App); !ok || e == nil {
					t.Error("routing lost every entry")
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; !stop.Load(); i++ {
			id := []string{"churn-a", "churn-b"}[i%2]
			if _, err := r.RegisterTrainer(Spec{ID: id, Application: "hmmer"}, core.NewTrainer(nil)); err != nil {
				t.Error(err)
				return
			}
			r.Submit(samples[:4])
			if err := r.Unregister(id); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	time.Sleep(200 * time.Millisecond)
	stop.Store(true)
	wg.Wait()

	if n := r.Len(); n != 1 {
		t.Fatalf("%d entries after churn, want the stable one", n)
	}
}

func TestCloseDrainsEveryEntry(t *testing.T) {
	var closes atomic.Int32
	r := New(Config{NewBatcher: func(e *Entry) Batcher {
		return closeCounter{directBatcher{snap: e.Trainer().Snapshot}, &closes}
	}})
	for _, id := range []string{"m-a", "m-b", "m-c"} {
		if _, err := r.RegisterTrainer(Spec{ID: id}, core.NewTrainer(nil)); err != nil {
			t.Fatal(err)
		}
	}
	r.Close()
	if got := closes.Load(); got != 3 {
		t.Fatalf("Close drained %d batchers, want 3", got)
	}
	r.Close() // idempotent: must not double-drain
	if got := closes.Load(); got != 3 {
		t.Fatalf("second Close re-drained: %d closes", got)
	}
}

// closeCounter wraps the direct batcher and counts Close calls.
type closeCounter struct {
	directBatcher
	closes *atomic.Int32
}

func (c closeCounter) Close() { c.closes.Add(1) }

// TestTriggerUpdateSingleFlight: one asynchronous update at a time; a second
// trigger while one is in flight reports not-started.
func TestTriggerUpdateSingleFlight(t *testing.T) {
	r := New(Config{})
	defer r.Close()
	e, err := r.RegisterTrainer(Spec{ID: "m"}, trainedTrainer(t, 3))
	if err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	started := e.TriggerUpdate(time.Minute, func(error) { <-release })
	if !started {
		t.Fatal("first update did not start")
	}
	if e.TriggerUpdate(time.Minute, nil) {
		t.Fatal("second update started while the first was in flight")
	}
	close(release)
}

// TestCloseCancelsInFlightUpdate: Registry.Close must cancel an in-flight
// TriggerUpdate rather than sit out its timeout — the update's context
// derives from the registry's lifetime. The wrapped evaluator parks the
// search mid-generation; once Close has fired the cancellation we release
// it and the search must abort with context.Canceled, never publishing.
// Run under -race: it exercises Close racing the update goroutine.
func TestCloseCancelsInFlightUpdate(t *testing.T) {
	r := New(Config{})
	tr := trainedTrainer(t, 11)

	entered := make(chan struct{}) // first evaluation reached
	gate := make(chan struct{})    // holds the search mid-generation
	var enteredOnce, gateOnce sync.Once
	tr.WrapEvaluator = func(ev genetic.Evaluator) genetic.Evaluator {
		return genetic.EvaluatorFunc(func(spec regress.Spec) float64 {
			enteredOnce.Do(func() { close(entered) })
			<-gate
			return ev.Fitness(spec)
		})
	}
	e, err := r.RegisterTrainer(Spec{ID: "m"}, tr)
	if err != nil {
		t.Fatal(err)
	}

	done := make(chan error, 1)
	if !e.TriggerUpdate(time.Minute, func(err error) { done <- err }) {
		t.Fatal("update did not start")
	}
	<-entered

	closed := make(chan struct{})
	go func() {
		r.Close()
		close(closed)
	}()
	// Close cancels the registry context before draining entries; release
	// the parked search only after cancellation is observable so the abort
	// is unambiguously the cancel, not a finished search.
	<-r.baseCtx.Done()
	gateOnce.Do(func() { close(gate) })

	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("update error = %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("update did not abort after Close cancelled it")
	}
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("Close did not return after the update aborted")
	}
}

// TestUnregisterCancelsInFlightUpdate: Unregister must cancel the removed
// entry's in-flight TriggerUpdate instead of waiting for the whole search,
// and the cancelled update must not publish to the removed trainer. The
// evaluator is slowed and the search runs 40 generations, so an update that
// is not cancelled outlives Unregister's call by far and returns nil.
func TestUnregisterCancelsInFlightUpdate(t *testing.T) {
	r := New(Config{})
	defer r.Close()
	tr := trainedTrainer(t, 13)
	tr.Search.Generations = 40
	entered := make(chan struct{}) // first evaluation reached
	var enteredOnce sync.Once
	tr.WrapEvaluator = func(ev genetic.Evaluator) genetic.Evaluator {
		return genetic.EvaluatorFunc(func(spec regress.Spec) float64 {
			enteredOnce.Do(func() { close(entered) })
			time.Sleep(2 * time.Millisecond)
			return ev.Fitness(spec)
		})
	}
	e, err := r.RegisterTrainer(Spec{ID: "m"}, tr)
	if err != nil {
		t.Fatal(err)
	}
	before := tr.Published().Generation

	done := make(chan error, 1)
	if !e.TriggerUpdate(time.Minute, func(err error) { done <- err }) {
		t.Fatal("update did not start")
	}
	<-entered
	if err := r.Unregister("m"); err != nil {
		t.Fatal(err)
	}
	// Unregister waits for the update goroutine, so onDone has run.
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("update error = %v, want context.Canceled", err)
		}
	default:
		t.Fatal("Unregister returned before the in-flight update finished")
	}
	if got := tr.Published().Generation; got != before {
		t.Fatalf("cancelled update published: generation %d -> %d", before, got)
	}
}
