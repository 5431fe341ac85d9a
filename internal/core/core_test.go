package core

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"testing"

	"hsmodel/internal/family/spline"
	"hsmodel/internal/genetic"
	"hsmodel/internal/hwspace"
	"hsmodel/internal/profile"
	"hsmodel/internal/regress"
	"hsmodel/internal/rng"
	"hsmodel/internal/trace"
)

// testShardLen keeps unit tests fast; experiments use DefaultShardLen.
const testShardLen = 20_000

func smallApps() []*trace.App {
	return []*trace.App{trace.Bzip2(), trace.Hmmer(), trace.Sjeng()}
}

func smallCollector() *Collector {
	return &Collector{ShardLen: testShardLen, ShardPool: 20}
}

func TestVarNames(t *testing.T) {
	names := VarNames()
	if len(names) != NumVars || NumVars != 26 {
		t.Fatalf("%d names for %d vars", len(names), NumVars)
	}
	if names[0] != "x1" || names[12] != "x13" || names[13] != "y1" || names[25] != "y13" {
		t.Errorf("names mis-ordered: %v", names)
	}
	if !IsSoftwareVar(0) || !IsSoftwareVar(12) || IsSoftwareVar(13) {
		t.Error("IsSoftwareVar boundary wrong")
	}
}

func TestSampleRowLayout(t *testing.T) {
	s := Sample{HW: hwspace.Baseline(), CPI: 1.5}
	s.X[0] = 42
	row := s.Row()
	if len(row) != NumVars {
		t.Fatalf("row length %d", len(row))
	}
	if row[0] != 42 {
		t.Error("software characteristics must come first")
	}
	if math.Float64bits(row[13]) != math.Float64bits(float64(hwspace.Baseline().Width)) {
		t.Error("hardware vector must follow software characteristics")
	}
}

func TestToDataset(t *testing.T) {
	samples := []Sample{
		{App: "a", AppID: 0, CPI: 1.0, HW: hwspace.Baseline()},
		{App: "b", AppID: 1, CPI: 2.0, HW: hwspace.Baseline()},
	}
	ds := ToDataset(samples)
	if err := ds.Check(); err != nil {
		t.Fatal(err)
	}
	if ds.NumRows() != 2 || ds.Y[1] != 2.0 || ds.Group[1] != 1 {
		t.Error("dataset mapping wrong")
	}
}

func TestCollectDeterministicAndGrouped(t *testing.T) {
	apps := smallApps()
	a := smallCollector().Collect(apps, 4, 99)
	b := smallCollector().Collect(apps, 4, 99)
	if len(a) != 12 || len(b) != 12 {
		t.Fatalf("collected %d, %d samples", len(a), len(b))
	}
	for i := range a {
		if math.Float64bits(a[i].CPI) != math.Float64bits(b[i].CPI) || a[i].X != b[i].X || a[i].HW != b[i].HW {
			t.Fatalf("sample %d differs between identical collections", i)
		}
	}
	// Per-app grouping and sane CPI.
	for _, s := range a {
		if s.CPI <= 0.1 || s.CPI > 50 {
			t.Errorf("%s CPI %v implausible", s.App, s.CPI)
		}
		if apps[s.AppID].Name != s.App {
			t.Errorf("app id %d mislabeled %s", s.AppID, s.App)
		}
	}
}

func TestProfileCacheSharedAcrossArchitectures(t *testing.T) {
	// Two samples of the same shard on different architectures must carry
	// identical software characteristics (portability, Section 2.2).
	apps := smallApps()
	col := smallCollector()
	src := rng.New(1)
	hw1 := hwspace.FromIndices(hwspace.Sample(src))
	hw2 := hwspace.FromIndices(hwspace.Sample(src))
	samples := col.CollectPairs(apps, []int{0, 0}, []int{3, 3}, []hwspace.Config{hw1, hw2})
	if samples[0].X != samples[1].X {
		t.Error("same shard produced different profiles on different architectures")
	}
	if math.Float64bits(samples[0].CPI) == math.Float64bits(samples[1].CPI) {
		t.Error("different architectures should usually give different CPI")
	}
}

// samplesHash is the SHA-256 of every sample field, floats by bit pattern.
func samplesHash(samples []Sample) string {
	h := sha256.New()
	var b [8]byte
	put := func(f float64) {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(f))
		h.Write(b[:])
	}
	for _, s := range samples {
		fmt.Fprintf(h, "%s|%d|%d|%+v|", s.App, s.AppID, s.Shard, s.HW)
		for _, x := range s.X {
			put(x)
		}
		put(s.CPI)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestCollectGolden pins the collector's output bit for bit, so changes to
// tracing, profiling or simulation that should be invisible stay invisible.
func TestCollectGolden(t *testing.T) {
	apps := trace.SPEC2006()
	col := &Collector{ShardLen: testShardLen, ShardPool: 12}
	src := rng.New(3)
	hws := make([]hwspace.Config, 5)
	for i := range hws {
		hws[i] = hwspace.FromIndices(hwspace.Sample(src))
	}
	for _, tc := range []struct {
		name string
		got  []Sample
		want string
	}{
		{"collect", col.Collect(apps, 6, 1), "8b3e456a6231c8402956457bf904069ba25c3eb9c3060a099905983746074ecb"},
		// The same Collector again with another seed revisits shards it
		// has already profiled.
		{"collect-again", col.Collect(apps, 6, 2), "4d86346200a569056f10ba294172856753831837f2dab2ac8d208422375988ae"},
		{"pairs", col.CollectPairs(apps, []int{0, 2, 4, 6, 2}, []int{1, 5, 5, 11, 5}, hws), "5cce22b6ca68e49d184ee3b08549581b9bf07245423c024be40643e170ca90e8"},
	} {
		if got := samplesHash(tc.got); got != tc.want {
			t.Errorf("%s: samples hash %s, want %s", tc.name, got, tc.want)
		}
	}
}

// TestTrainGolden pins training output bit for bit: the served
// coefficients, the chosen spec and every generation's statistics of a cold
// Train and a second, warm-started Train, so folding a search or fitness knob
// into a constant cannot move a model without a test failing.
func TestTrainGolden(t *testing.T) {
	apps := smallApps()
	col := &Collector{ShardLen: testShardLen, ShardPool: 12}
	tr := NewTrainer(col.Collect(apps, 40, 7))
	tr.ShardLen = testShardLen
	tr.Search = genetic.Params{PopulationSize: 10, Generations: 2, Seed: 3}

	h := sha256.New()
	var b [8]byte
	put := func(f float64) {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(f))
		h.Write(b[:])
	}
	record := func() {
		m := splineOf(tr.Snapshot())
		fmt.Fprintf(h, "%s|", m.Spec)
		for _, c := range m.Coef {
			put(c)
		}
		for _, gs := range tr.Report().History {
			fmt.Fprintf(h, "%d|%d|", gs.Gen, gs.Evals)
			put(gs.Best)
			put(gs.Mean)
		}
	}
	if err := tr.Train(context.Background()); err != nil {
		t.Fatal(err)
	}
	record()
	if err := tr.AddSamples(col.Collect(apps, 30, 21)); err != nil {
		t.Fatal(err)
	}
	if err := tr.Train(context.Background()); err != nil {
		t.Fatal(err)
	}
	record()
	const want = "5cdc35f9efb08f876f5c318e7212abc1e9e25705555041b70e04d1cd79b6cf19"
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("training hash %s, want %s", got, want)
	}
}

// TestCollectorSameNameApps: a sample's characteristics come from the
// application it measures, so an application that reuses another's name
// must not inherit that application's profile.
func TestCollectorSameNameApps(t *testing.T) {
	impostor := *trace.Hmmer()
	impostor.Name = trace.Bzip2().Name
	hw := []hwspace.Config{hwspace.Baseline()}
	pair := func(col *Collector, app *trace.App) Sample {
		return col.CollectPairs([]*trace.App{app}, []int{0}, []int{3}, hw)[0]
	}
	col := smallCollector()
	first := pair(col, trace.Bzip2())
	got := pair(col, &impostor)
	want := pair(smallCollector(), &impostor)
	if got.X != want.X {
		t.Errorf("renamed %s sample carries X %v, want %v (first app's X %v)", trace.Hmmer().Name, got.X, want.X, first.X)
	}
}

func trainSmallModeler(t testing.TB) (*Trainer, []Sample) {
	t.Helper()
	apps := smallApps()
	col := smallCollector()
	train := col.Collect(apps, 40, 1)
	valid := col.Collect(apps, 10, 2)
	m := NewTrainer(train)
	m.ShardLen = testShardLen
	m.Search = genetic.Params{PopulationSize: 16, Generations: 5, Seed: 42}
	if err := m.Train(context.Background()); err != nil {
		t.Fatal(err)
	}
	return m, valid
}

func TestModelerTrainAndInterpolate(t *testing.T) {
	m, valid := trainSmallModeler(t)
	met, err := m.Snapshot().EvaluateOn(valid)
	if err != nil {
		t.Fatal(err)
	}
	// Even this tiny setup should interpolate well; the full-scale
	// experiment reproduces the paper's 5%.
	if met.MedAPE > 0.15 {
		t.Errorf("interpolation medAPE %v too high", met.MedAPE)
	}
	if met.Pearson < 0.8 {
		t.Errorf("correlation %v too low", met.Pearson)
	}
	if h := m.Report().History; len(h) != 5 {
		t.Errorf("history %d generations", len(h))
	}
	if splineOf(m.Snapshot()) == nil || len(m.Population()) != 16 {
		t.Error("model/population not retained")
	}
}

func TestPredictShardAndApplication(t *testing.T) {
	tr, valid := trainSmallModeler(t)
	m := tr.Snapshot()
	hw := hwspace.Baseline()
	p1, err := m.PredictShard(valid[0].X, hw)
	if err != nil || p1 <= 0 {
		t.Fatalf("PredictShard = %v, %v", p1, err)
	}
	app, err := m.PredictApplication(
		[]profile.Characteristics{valid[0].X, valid[1].X, valid[2].X}, hw)
	if err != nil || app <= 0 {
		t.Fatalf("PredictApplication = %v, %v", app, err)
	}
	// Application CPI is the mean of shard predictions, summed in shard
	// order, each shard answered alone.
	var sum float64
	for _, x := range []profile.Characteristics{valid[0].X, valid[1].X, valid[2].X} {
		p, _ := m.PredictShard(x, hw)
		sum += p
	}
	if math.Float64bits(app) != math.Float64bits(sum/3) {
		t.Errorf("application aggregation wrong: %v vs %v", app, sum/3)
	}
}

func TestUntrainedTrainerErrors(t *testing.T) {
	m := NewTrainer(nil)
	if err := m.Train(context.Background()); err == nil {
		t.Error("training on no samples should fail")
	}
	if _, err := m.Snapshot().PredictShard(profile.Characteristics{}, hwspace.Baseline()); err == nil {
		t.Error("prediction before training should fail")
	}
	if _, err := m.Snapshot().PredictApplication(nil, hwspace.Baseline()); err == nil {
		t.Error("empty application prediction should fail")
	}
	if _, err := m.Perturb(context.Background(), []Sample{{}}, UpdatePolicy{}); err == nil {
		t.Error("Perturb before Train should fail")
	}
}

func TestPerturbAccurateRetainsModel(t *testing.T) {
	m, _ := trainSmallModeler(t)
	// More samples of already-trained applications: the model should be
	// retained (their behavior is shared).
	more := smallCollector().Collect(smallApps(), 8, 77)
	d, err := m.Perturb(context.Background(), more, UpdatePolicy{ErrThreshold: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if d.Updated || d.NeedsMoreData {
		t.Errorf("familiar software should not trigger update: %v", d)
	}
	if m.NumSamples() != 120+24 {
		t.Errorf("samples not absorbed: %d", m.NumSamples())
	}

	// A batch the store cannot hold is refused whole, before any training.
	full := make([]Sample, MaxStoreRows)
	for i := range full {
		full[i] = more[i%len(more)]
	}
	m.SetSamples(full)
	if _, err := m.Perturb(context.Background(), more, UpdatePolicy{ErrThreshold: 0.5}); !errors.Is(err, ErrStoreFull) {
		t.Fatalf("Perturb into a full store: err %v, want ErrStoreFull", err)
	}
	if m.NumSamples() != MaxStoreRows {
		t.Errorf("refused Perturb moved the store to %d samples", m.NumSamples())
	}
}

func TestPerturbInaccurateFewSamplesAccrues(t *testing.T) {
	m, _ := trainSmallModeler(t)
	// A genuinely new application (FP-heavy bwaves) with too few profiles:
	// the protocol must withhold the update (the error could be an
	// outlier).
	col := smallCollector()
	novel := col.Collect([]*trace.App{trace.Bwaves()}, 3, 5)
	for i := range novel {
		novel[i].AppID = 3
	}
	d, err := m.Perturb(context.Background(), novel, UpdatePolicy{ErrThreshold: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	if !d.NeedsMoreData || d.Updated {
		t.Errorf("3 inaccurate profiles should accrue, not update: %v", d)
	}
}

func TestPerturbTriggersUpdate(t *testing.T) {
	m, _ := trainSmallModeler(t)
	col := smallCollector()
	novel := col.Collect([]*trace.App{trace.GemsFDTD()}, 15, 6)
	for i := range novel {
		novel[i].AppID = 3
	}
	before := m.Snapshot()
	d, err := m.Perturb(context.Background(), novel, UpdatePolicy{ErrThreshold: 0.0001})
	if err != nil {
		t.Fatal(err)
	}
	if !d.Updated {
		t.Fatalf("update should trigger: %v", d)
	}
	if m.Snapshot() == before {
		t.Error("model not refit after update")
	}
	if d.String() == "" {
		t.Error("decision should render")
	}
}

func TestRetrainOnGrownStoreKeepsAccuracy(t *testing.T) {
	m, valid := trainSmallModeler(t)
	firstBest := m.Population()[0].Fitness
	if err := m.AddSamples(smallCollector().Collect(smallApps(), 10, 30)); err != nil {
		t.Fatal(err)
	}
	if err := m.Train(context.Background()); err != nil {
		t.Fatal(err)
	}
	met, err := m.Snapshot().EvaluateOn(valid)
	if err != nil {
		t.Fatal(err)
	}
	if met.MedAPE > 0.2 {
		t.Errorf("post-update accuracy degraded badly: %v", met)
	}
	_ = firstBest // the warm start is observable through convergence speed
}

func TestFitnessSplitsExcludeValidation(t *testing.T) {
	// The evaluator must put weight 0 on validation rows so that candidate
	// models never train on them.
	samples := smallCollector().Collect(smallApps(), 20, 12)
	ds := ToDataset(samples)
	ev, err := newEvaluator(ds, FitnessConfig{}, true, true)
	if err != nil {
		t.Fatal(err)
	}
	zeroed := 0
	for _, w := range ev.weights {
		if w == 0 {
			zeroed++
		}
	}
	total := 0
	for _, rows := range ev.valRows {
		total += len(rows)
	}
	if zeroed == 0 || zeroed != total {
		t.Errorf("validation rows %d but %d zero weights", total, zeroed)
	}
	// Fitness of a reasonable spec must be finite and positive.
	spec := regress.Spec{Codes: make([]regress.TransformCode, NumVars)}
	for i := range spec.Codes {
		spec.Codes[i] = regress.Linear
	}
	f := ev.Fitness(spec)
	if f <= 0 || f > 10 {
		t.Errorf("fitness %v implausible", f)
	}
}

// TestAddSamplesRefusesPastCap: a batch that would take the store past
// MaxStoreRows is refused whole with ErrStoreFull, leaving the store and its
// version unchanged; a batch that exactly fills the store is accepted.
func TestAddSamplesRefusesPastCap(t *testing.T) {
	s := Sample{App: "a", HW: hwspace.Baseline(), CPI: 1}
	fill := make([]Sample, MaxStoreRows-2)
	for i := range fill {
		fill[i] = s
	}
	m := NewTrainer(nil)
	m.SetSamples(fill)
	version := m.StoreVersion()

	if err := m.AddSamples([]Sample{s, s, s}); !errors.Is(err, ErrStoreFull) {
		t.Fatalf("overflowing batch: err %v, want ErrStoreFull", err)
	}
	if n, v := m.NumSamples(), m.StoreVersion(); n != MaxStoreRows-2 || v != version {
		t.Fatalf("refused batch moved the store: %d rows at version %d, want %d at %d", n, v, MaxStoreRows-2, version)
	}
	if err := m.AddSamples([]Sample{s, s}); err != nil {
		t.Fatalf("batch that exactly fills the store: %v", err)
	}
	if n, v := m.NumSamples(), m.StoreVersion(); n != MaxStoreRows || v != version+1 {
		t.Fatalf("filling batch: %d rows at version %d, want %d at %d", n, v, MaxStoreRows, version+1)
	}
	if err := m.AddSamples([]Sample{s}); !errors.Is(err, ErrStoreFull) {
		t.Fatalf("one row into a full store: err %v, want ErrStoreFull", err)
	}
}

// TestAddSamplesInvalidatesEvaluator: profiles appended after a training run
// must influence the next one — each run featurizes the full store, never a
// stale copy.
func TestAddSamplesInvalidatesEvaluator(t *testing.T) {
	m, _ := trainSmallModeler(t)
	firstRows := m.Snapshot().TrainedRows()
	if firstRows != 120 {
		t.Fatalf("trained on %d rows, want 120", firstRows)
	}
	before := splineOf(m.Snapshot())

	// A genuinely new FP-heavy application shifts the fit if it is seen.
	added := smallCollector().Collect([]*trace.App{trace.Bwaves()}, 20, 404)
	for i := range added {
		added[i].AppID = 3
	}
	if err := m.AddSamples(added); err != nil {
		t.Fatal(err)
	}
	if err := m.Train(context.Background()); err != nil {
		t.Fatal(err)
	}

	snap := m.Snapshot()
	if snap.TrainedRows() != firstRows+len(added) {
		t.Errorf("refit saw %d rows, want %d — appended samples ignored",
			snap.TrainedRows(), firstRows+len(added))
	}
	after := splineOf(snap)
	if after == before {
		t.Fatal("model not refit after AddSamples")
	}
	changed := len(after.Coef) != len(before.Coef)
	for j := 0; !changed && j < len(after.Coef); j++ {
		changed = math.Float64bits(after.Coef[j]) != math.Float64bits(before.Coef[j])
	}
	if !changed {
		t.Error("appended samples had no influence on the fitted coefficients")
	}
}

// TestSamplesReturnsCopy: mutating the slice returned by Samples must not
// reach the trainer's store (all mutation goes through AddSamples or
// SetSamples, which bump the store version).
func TestSamplesReturnsCopy(t *testing.T) {
	m := NewTrainer([]Sample{{App: "a", CPI: 1}, {App: "b", CPI: 2}})
	got := m.Samples()
	got[0].CPI = 99
	if m.Samples()[0].CPI != 1 {
		t.Error("Samples exposed the internal store")
	}
}

// splineOf returns the spline regression a snapshot serves, or nil when it
// serves another family or no model.
func splineOf(s *Snapshot) *regress.Model {
	if s == nil {
		return nil
	}
	if sm, ok := s.fam.(*spline.Model); ok {
		return sm.RegressModel()
	}
	return nil
}
