// Tests for the model registry (registry.go) below the HTTP layer: routing,
// fan-out, entry lifetimes and draining, with every entry predicting through
// its real direct path and micro-batcher.
package serve

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hsmodel/internal/core"
	"hsmodel/internal/genetic"
	"hsmodel/internal/hwspace"
	"hsmodel/internal/lifecycle"
	"hsmodel/internal/profile"
	"hsmodel/internal/regress"
	"hsmodel/pkg/hsmodel"
)

// testSamples is the shared training store of testData.
func testSamples(t testing.TB) []core.Sample {
	t.Helper()
	train, _ := testData(t)
	return train
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

// newTestRegistry returns an empty registry with the server's default
// batcher settings, closed when the test ends.
func newTestRegistry(t testing.TB) *registry {
	t.Helper()
	r := newRegistry(batcherConfig{maxBatch: 32, maxWait: 2 * time.Millisecond, queueDepth: 128})
	t.Cleanup(r.close)
	return r
}

func TestRegisterResolveUnregister(t *testing.T) {
	r := newTestRegistry(t)
	for _, spec := range []hsmodel.RegisterRequest{
		{ID: "m-bzip2", Application: "bzip2"},
		{ID: "m-hmmer", Application: "hmmer"},
		{ID: "m-all"},
	} {
		if _, err := r.registerTrainer(spec, nil, core.NewTrainer(nil)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := r.registerTrainer(hsmodel.RegisterRequest{ID: "m-all"}, nil, core.NewTrainer(nil)); !errors.Is(err, errExists) {
		t.Fatalf("duplicate register: %v, want errExists", err)
	}
	if _, err := r.registerTrainer(hsmodel.RegisterRequest{}, nil, core.NewTrainer(nil)); err == nil {
		t.Fatal("empty id register succeeded")
	}
	if e, ok := r.resolve("m-bzip2"); !ok || e.req.ID != "m-bzip2" || e.req.ArchSpace != defaultArchSpace {
		t.Fatalf("resolve(m-bzip2) = %v, %v", e, ok)
	}
	if e, ok := r.resolve("m-hmmer"); !ok || e.req.ID != "m-hmmer" {
		t.Fatalf("resolve by id failed: %v, %v", e, ok)
	}
	if _, ok := r.resolve("missing"); ok {
		t.Fatal("resolve invented an entry")
	}

	if err := r.unregister("m-hmmer"); err != nil {
		t.Fatal(err)
	}
	if err := r.unregister("m-hmmer"); !errors.Is(err, errNotFound) {
		t.Fatalf("double unregister: %v, want errNotFound", err)
	}
	if got := len(r.list()); got != 2 {
		t.Fatalf("after unregister: %d entries", got)
	}

	r.close()
	if _, err := r.registerTrainer(hsmodel.RegisterRequest{ID: "late"}, nil, core.NewTrainer(nil)); !errors.Is(err, ErrClosed) {
		t.Fatalf("register after close: %v, want ErrClosed", err)
	}
	if err := r.unregister("m-bzip2"); !errors.Is(err, ErrClosed) {
		t.Fatalf("unregister after close: %v, want ErrClosed", err)
	}
}

// TestRegisterLifecycleNeedsModel: a control loop on an untrained trainer
// with no model path is refused and leaves nothing registered; a trained
// trainer, or a model path the caller loads from, is accepted.
func TestRegisterLifecycleNeedsModel(t *testing.T) {
	r := newTestRegistry(t)
	lc := &lifecycle.Config{}
	if _, err := r.registerTrainer(hsmodel.RegisterRequest{ID: "m-lc"}, lc, core.NewTrainer(nil)); !errors.Is(err, errLifecycleNoModel) {
		t.Fatalf("untrained lifecycle entry: err %v, want errLifecycleNoModel", err)
	}
	if len(r.list()) != 0 {
		t.Fatalf("refused entry left %d entries", len(r.list()))
	}
	if _, err := r.registerTrainer(hsmodel.RegisterRequest{ID: "m-path", ModelPath: "model.json"}, lc, core.NewTrainer(nil)); err != nil {
		t.Fatalf("untrained lifecycle entry with a model path: %v", err)
	}
	if _, err := r.registerTrainer(hsmodel.RegisterRequest{ID: "m-trained"}, lc, trainedTrainer(t, 3)); err != nil {
		t.Fatalf("trained lifecycle entry: %v", err)
	}
}

// TestRegisterRefusesPastMaxEntries: with maxEntries registered, one more
// registration is refused with errRegistryFull, which answers 507, and
// registers nothing; unregistering one entry makes room again.
func TestRegisterRefusesPastMaxEntries(t *testing.T) {
	r := newTestRegistry(t)
	for i := 0; i < maxEntries; i++ {
		if _, err := r.register(hsmodel.RegisterRequest{ID: fmt.Sprintf("m-%d", i)}); err != nil {
			t.Fatalf("entry %d of %d: %v", i+1, maxEntries, err)
		}
	}
	_, err := r.register(hsmodel.RegisterRequest{ID: "m-extra"})
	if !errors.Is(err, errRegistryFull) {
		t.Fatalf("entry %d: err %v, want errRegistryFull", maxEntries+1, err)
	}
	if got := len(r.list()); got != maxEntries {
		t.Fatalf("%d entries after the refusal, want %d", got, maxEntries)
	}
	if resolveID(r, "m-extra") != "" {
		t.Fatal("refused entry resolves")
	}
	rec := httptest.NewRecorder()
	writeError(rec, err)
	if rec.Code != http.StatusInsufficientStorage {
		t.Fatalf("refusal answers %d, want 507", rec.Code)
	}
	if err := r.unregister("m-0"); err != nil {
		t.Fatal(err)
	}
	if _, err := r.register(hsmodel.RegisterRequest{ID: "m-extra"}); err != nil {
		t.Fatalf("after an unregister: %v", err)
	}
}

// aliasFleet is the README fleet: two application-scoped entries and two
// wildcard entries.
var aliasFleet = []hsmodel.RegisterRequest{
	{ID: "default"},
	{ID: "m-bzip2", Application: "bzip2"},
	{ID: "m-hmmer", Application: "hmmer"},
	{ID: "m-all"},
}

// registerFleet returns a registry holding specs, registered in the order
// given.
func registerFleet(t *testing.T, specs []hsmodel.RegisterRequest) *registry {
	t.Helper()
	r := newTestRegistry(t)
	for _, spec := range specs {
		if _, err := r.registerTrainer(spec, nil, core.NewTrainer(nil)); err != nil {
			t.Fatal(err)
		}
	}
	return r
}

// resolveID returns the id resolve picks for addr, or "" when not found.
func resolveID(r *registry, addr string) string {
	e, ok := r.resolve(addr)
	if !ok {
		return ""
	}
	return e.req.ID
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
			t.Fatalf("resolve(%q) = %q, want %q", c.addr, got, c.want)
		}
	}

	// The wildcard fallback is the lowest id still registered.
	if err := r.unregister("default"); err != nil {
		t.Fatal(err)
	}
	if got := resolveID(r, "app:sjeng"); got != "m-all" {
		t.Fatalf("app:sjeng without default = %q, want m-all", got)
	}

	// With no wildcard entry left, an application without its own entry is
	// not found; one with its own entry still resolves.
	if err := r.unregister("m-all"); err != nil {
		t.Fatal(err)
	}
	if got := resolveID(r, "app:sjeng"); got != "" {
		t.Fatalf("app:sjeng with no wildcard = %q, want not found", got)
	}
	if got := resolveID(r, "app:bzip2"); got != "m-bzip2" {
		t.Fatalf("app:bzip2 with no wildcard = %q, want m-bzip2", got)
	}

	// Several entries scoped to one application: the lowest id wins.
	if _, err := r.registerTrainer(hsmodel.RegisterRequest{ID: "a-bzip2", Application: "bzip2"}, nil, core.NewTrainer(nil)); err != nil {
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
		order := append(append([]hsmodel.RegisterRequest(nil), aliasFleet[shift:]...), aliasFleet[:shift]...)
		rot := registerFleet(t, order)
		for _, addr := range addrs {
			// resolve scans a map: repeat to meet several iteration orders.
			for rep := 0; rep < 4; rep++ {
				if got := resolveID(rot, addr); got != want[addr] {
					t.Fatalf("registration rotated by %d: resolve(%q) = %q, want %q", shift, addr, got, want[addr])
				}
			}
		}
	}

	// The scopes are part of the input: rescoping m-hmmer to sjeng must move
	// app:hmmer to the wildcard and app:sjeng to m-hmmer.
	rescoped := append([]hsmodel.RegisterRequest(nil), aliasFleet...)
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
		if err := r.unregister(gone.ID); err != nil {
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
	if err := r.unregister("m-hmmer"); err != nil {
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
	r := newTestRegistry(t)
	specs := []hsmodel.RegisterRequest{
		{ID: "m-bzip2", Application: "bzip2"},
		{ID: "m-hmmer", Application: "hmmer"},
		{ID: "m-all"},
	}
	for _, spec := range specs {
		if _, err := r.registerTrainer(spec, nil, core.NewTrainer(nil)); err != nil {
			t.Fatal(err)
		}
	}
	samples := testSamples(t)
	perApp := map[string]int{}
	for _, s := range samples {
		perApp[s.App]++
	}
	touched := r.submit(samples)
	if len(touched) != 3 {
		t.Fatalf("touched %v, want all three entries", touched)
	}
	for _, spec := range specs {
		e, _ := r.resolve(spec.ID)
		want := len(samples)
		if spec.Application != "" {
			want = perApp[spec.Application]
		}
		if got := e.trainer.NumSamples(); got != want {
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
	if touched := r.submit(sjeng); len(touched) != 1 || touched[0] != "m-all" {
		t.Fatalf("sjeng sample touched %v, want only m-all", touched)
	}
}

// TestNoCrossEntrySnapshotLeakage registers three differently-trained entries
// and asserts each serves exactly its own snapshot: pointer-distinct across
// entries, and predictions through the entry bit-identical to direct reads of
// that entry's snapshot.
func TestNoCrossEntrySnapshotLeakage(t *testing.T) {
	r := newTestRegistry(t)
	seeds := map[string]uint64{"m-a": 3, "m-b": 4, "m-c": 5}
	snaps := map[string]*core.Snapshot{}
	for id, seed := range seeds {
		tr := trainedTrainer(t, seed)
		if _, err := r.registerTrainer(hsmodel.RegisterRequest{ID: id}, nil, tr); err != nil {
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
	for id := range seeds {
		e, _ := r.resolve(id)
		if e.trainer.Snapshot() != snaps[id] {
			t.Fatalf("entry %q serves a foreign snapshot", id)
		}
		got, err := e.predict([]profile.Characteristics{s.X}, s.HW)
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
	r := newTestRegistry(t)
	stable, err := r.registerTrainer(hsmodel.RegisterRequest{ID: "stable"}, nil, trainedTrainer(t, 3))
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
				if _, err := stable.predict([]profile.Characteristics{s.X}, s.HW); err != nil {
					t.Error(err)
					return
				}
				if _, err := predictOneJob(ctx, stable.batcher, s.X, s.HW); err != nil {
					t.Error(err)
					return
				}
				if e, ok := r.resolve("app:" + s.App); !ok || e == nil {
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
			if _, err := r.registerTrainer(hsmodel.RegisterRequest{ID: id, Application: "hmmer"}, nil, core.NewTrainer(nil)); err != nil {
				t.Error(err)
				return
			}
			r.submit(samples[:4])
			if err := r.unregister(id); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	time.Sleep(200 * time.Millisecond)
	stop.Store(true)
	wg.Wait()

	if n := len(r.list()); n != 1 {
		t.Fatalf("%d entries after churn, want the stable one", n)
	}
}

// TestCloseDrainsEveryEntry: close answers every one-item job each entry's
// batcher accepted, then refuses new jobs and direct predictions alike. The
// gather window is an hour and the batch cap is far above what is
// submitted, so no batch flushes before close: every answer comes from the
// drain. A second close is a no-op.
func TestCloseDrainsEveryEntry(t *testing.T) {
	base := trainedTrainer(t, 3)
	s := testSamples(t)[0]
	want, err := base.Snapshot().PredictShard(s.X, s.HW)
	if err != nil {
		t.Fatal(err)
	}
	r := newRegistry(batcherConfig{maxBatch: 32, maxWait: time.Hour, queueDepth: 32})
	t.Cleanup(r.close)
	var accepted []*predictJob
	for _, id := range []string{"m-a", "m-b", "m-c"} {
		tr := core.NewTrainer(nil)
		tr.Adopt(base.Snapshot())
		e, err := r.registerTrainer(hsmodel.RegisterRequest{ID: id}, nil, tr)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			// The steps of batcher.PredictMany up to its wait, so the test
			// knows the job is in the queue before close runs.
			job := e.batcher.getJob()
			job.xs = []profile.Characteristics{s.X}
			job.hws = []hwspace.Config{s.HW}
			job.out = make([]float64, 1)
			if err := e.batcher.submit(job); err != nil {
				t.Fatal(err)
			}
			accepted = append(accepted, job)
		}
	}
	entries := r.list()
	r.close()
	for i, job := range accepted {
		select {
		case <-job.done:
		default:
			t.Fatalf("prediction %d was accepted but close returned without answering it", i)
		}
		if job.err != nil || math.Float64bits(job.out[0]) != math.Float64bits(want) {
			t.Fatalf("prediction %d: drained %v (err %v), want %v", i, job.out[0], job.err, want)
		}
	}
	for _, e := range entries {
		if _, err := predictOneJob(context.Background(), e.batcher, s.X, s.HW); !errors.Is(err, ErrClosed) {
			t.Fatalf("entry %q after close: batch err %v, want ErrClosed", e.req.ID, err)
		}
		if _, err := e.predict([]profile.Characteristics{s.X}, s.HW); !errors.Is(err, ErrClosed) {
			t.Fatalf("entry %q after close: predict err %v, want ErrClosed", e.req.ID, err)
		}
	}
	if n := len(r.list()); n != 0 {
		t.Fatalf("%d entries left after close", n)
	}
	r.close() // idempotent: must not block or drain twice
}

// TestTriggerUpdateSingleFlight: one asynchronous update at a time; a second
// trigger while one is in flight reports not-started.
func TestTriggerUpdateSingleFlight(t *testing.T) {
	r := newTestRegistry(t)
	e, err := r.registerTrainer(hsmodel.RegisterRequest{ID: "m"}, nil, trainedTrainer(t, 3))
	if err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	started := e.triggerUpdate(time.Minute, func(error) { <-release })
	if !started {
		t.Fatal("first update did not start")
	}
	if e.triggerUpdate(time.Minute, nil) {
		t.Fatal("second update started while the first was in flight")
	}
	close(release)
}

// TestCloseCancelsInFlightUpdate: the registry's close must cancel an
// in-flight triggerUpdate rather than sit out its timeout — the update's context
// derives from the registry's lifetime. The wrapped evaluator parks the
// search mid-generation; once close has fired the cancellation we release
// it and the search must abort with context.Canceled, never publishing.
// Run under -race: it exercises close racing the update goroutine.
func TestCloseCancelsInFlightUpdate(t *testing.T) {
	r := newTestRegistry(t)
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
	e, err := r.registerTrainer(hsmodel.RegisterRequest{ID: "m"}, nil, tr)
	if err != nil {
		t.Fatal(err)
	}

	done := make(chan error, 1)
	if !e.triggerUpdate(time.Minute, func(err error) { done <- err }) {
		t.Fatal("update did not start")
	}
	<-entered

	closed := make(chan struct{})
	go func() {
		r.close()
		close(closed)
	}()
	// close cancels the registry context before draining entries; release
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
		t.Fatal("update did not abort after close cancelled it")
	}
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("close did not return after the update aborted")
	}
}

// TestUnregisterCancelsInFlightUpdate: unregister must cancel the removed
// entry's in-flight triggerUpdate instead of waiting for the whole search,
// and the cancelled update must not publish to the removed trainer. The
// evaluator is slowed and the search runs 40 generations, so an update that
// is not cancelled outlives unregister's call by far and returns nil.
func TestUnregisterCancelsInFlightUpdate(t *testing.T) {
	r := newTestRegistry(t)
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
	e, err := r.registerTrainer(hsmodel.RegisterRequest{ID: "m"}, nil, tr)
	if err != nil {
		t.Fatal(err)
	}
	before := tr.Published().Generation

	done := make(chan error, 1)
	if !e.triggerUpdate(time.Minute, func(err error) { done <- err }) {
		t.Fatal("update did not start")
	}
	<-entered
	if err := r.unregister("m"); err != nil {
		t.Fatal(err)
	}
	// unregister waits for the update goroutine, so onDone has run.
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("update error = %v, want context.Canceled", err)
		}
	default:
		t.Fatal("unregister returned before the in-flight update finished")
	}
	if got := tr.Published().Generation; got != before {
		t.Fatalf("cancelled update published: generation %d -> %d", before, got)
	}
}
