package core

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"sort"
	"testing"

	"hsmodel/internal/family"
	"hsmodel/internal/family/dal"
	"hsmodel/internal/family/spline"
	"hsmodel/internal/genetic"
	"hsmodel/internal/regress"
)

// constModel is a fixed-prediction family.Model for harness tests.
type constModel struct {
	fam string
	val float64
}

func (m constModel) PredictBatch(rows [][]float64, out []float64) {
	for i := range rows {
		out[i] = m.val
	}
}
func (m constModel) Describe() family.Description {
	return family.Description{Family: m.fam, Spec: "const"}
}
func (m constModel) Payload() (json.RawMessage, error) {
	return json.Marshal(m.val)
}

// fakeFamily is a scriptable family.Family: it returns a fixed model or a
// fixed error and counts Fit calls.
type fakeFamily struct {
	name string
	val  float64
	err  error
	fits int
}

func (f *fakeFamily) Name() string { return f.name }
func (f *fakeFamily) Fit(ctx context.Context, in family.FitInput) (family.FitOutput, error) {
	f.fits++
	if err := ctx.Err(); err != nil {
		return family.FitOutput{}, err
	}
	if f.err != nil {
		return family.FitOutput{}, f.err
	}
	return family.FitOutput{Model: constModel{fam: f.name, val: f.val}}, nil
}
func (f *fakeFamily) Load(payload json.RawMessage, numVars int) (family.Model, error) {
	var val float64
	if err := json.Unmarshal(payload, &val); err != nil {
		return nil, err
	}
	return constModel{fam: f.name, val: val}, nil
}

// TestFamilySelectionPublishesWinner runs a real selection round over all
// built-in families and checks the published snapshot, report, and
// scoreboard are consistent: the winner's score is the minimum, the rung is
// RungGenetic, and the snapshot serves the winning family.
func TestFamilySelectionPublishesWinner(t *testing.T) {
	m := newSmallModeler(t)
	m.Families = DefaultFamilies()
	if err := m.Train(context.Background()); err != nil {
		t.Fatal(err)
	}
	rep := m.Report()
	if rep.Rung != RungGenetic {
		t.Fatalf("rung = %v, want genetic (report: %v)", rep.Rung, rep)
	}
	if len(rep.FamilyErrors) > 0 {
		t.Fatalf("family fits failed: %v", rep.FamilyErrors)
	}
	if len(rep.FamilyScores) != 3 {
		t.Fatalf("scores for %d families, want 3: %v", len(rep.FamilyScores), rep.FamilyScores)
	}
	winScore, ok := rep.FamilyScores[rep.Family]
	if !ok {
		t.Fatalf("winner %q has no score in %v", rep.Family, rep.FamilyScores)
	}
	for name, score := range rep.FamilyScores {
		if score < winScore {
			t.Errorf("family %s scored %.6f, better than winner %s's %.6f",
				name, score, rep.Family, winScore)
		}
	}
	snap := m.Snapshot()
	if snap.Family() != rep.Family {
		t.Errorf("snapshot family %q, report family %q", snap.Family(), rep.Family)
	}
	if snap.Rung() != RungGenetic {
		t.Errorf("snapshot rung %v, want genetic", snap.Rung())
	}
	if got := snap.FamilyScores(); len(got) != len(rep.FamilyScores) {
		t.Errorf("snapshot scores %v, want %v", got, rep.FamilyScores)
	}
	if desc := snap.Describe(); desc.Family != rep.Family {
		t.Errorf("Describe().Family = %q, want %q", desc.Family, rep.Family)
	}
	// The published winner must serve predictions.
	s := m.Samples()[0]
	if _, err := snap.PredictShard(s.X, s.HW); err != nil {
		t.Errorf("PredictShard after selection: %v", err)
	}
}

// TestDefaultTrainerSelectsSpline: a trainer with no Families runs a
// selection round over the spline family alone — it publishes family
// "spline" on RungGenetic with a one-entry scoreboard, records the round's
// generations in its report, and fits bit for bit the model an explicit
// spline-only trainer fits.
func TestDefaultTrainerSelectsSpline(t *testing.T) {
	def := newSmallModeler(t)
	if err := def.Train(context.Background()); err != nil {
		t.Fatal(err)
	}
	rep := def.Report()
	snap := def.Snapshot()
	if rep.Rung != RungGenetic || snap.Rung() != RungGenetic {
		t.Fatalf("report rung %v, snapshot rung %v, want genetic (report: %v)", rep.Rung, snap.Rung(), rep)
	}
	if snap.Family() != spline.FamilyName || rep.Family != spline.FamilyName {
		t.Errorf("snapshot family %q, report family %q, want spline", snap.Family(), rep.Family)
	}
	scores := snap.FamilyScores()
	if _, ok := scores[spline.FamilyName]; !ok || len(scores) != 1 {
		t.Errorf("scoreboard %v, want exactly one spline entry", scores)
	}
	if len(rep.History) != def.Search.Generations {
		t.Errorf("report holds %d generations, want %d", len(rep.History), def.Search.Generations)
	}

	explicit := newSmallModeler(t)
	explicit.Families = []family.Family{spline.New()}
	if err := explicit.Train(context.Background()); err != nil {
		t.Fatal(err)
	}
	want, got := splineOf(explicit.Snapshot()), splineOf(snap)
	if got == nil || want == nil {
		t.Fatal("missing spline regression")
	}
	if want.Spec.String() != got.Spec.String() || len(want.Coef) != len(got.Coef) {
		t.Fatalf("models diverge: explicit %s (%d coef), default %s (%d coef)",
			want.Spec, len(want.Coef), got.Spec, len(got.Coef))
	}
	for i := range want.Coef {
		if math.Float64bits(want.Coef[i]) != math.Float64bits(got.Coef[i]) {
			t.Fatalf("coef %d diverges: %v vs %v", i, want.Coef[i], got.Coef[i])
		}
	}
}

// selectOn runs one selection round over ds outside a trainer: the
// evaluator's weighted per-application splits drawn from fc, every family
// fitted against them with search.
func selectOn(t testing.TB, ds *regress.Dataset, fc FitnessConfig, search genetic.Params, fams []family.Family) (*selectionRound, error) {
	t.Helper()
	ev, err := newEvaluator(ds, fc, true, true)
	if err != nil {
		t.Fatal(err)
	}
	return runSelection(context.Background(), fams, ev.fitInput(ev, search))
}

// TestFamilySelectionTieBreaksDeterministically: two families with
// bit-identical scores must resolve by the seeded draw, reproducibly.
func TestFamilySelectionTieBreaksDeterministically(t *testing.T) {
	samples := smallCollector().Collect(smallApps(), 20, 1)
	ds := ToDataset(samples)
	fams := []family.Family{
		&fakeFamily{name: "beta", val: 1.5},
		&fakeFamily{name: "alpha", val: 1.5},
	}
	fc := FitnessConfig{Seed: 9}
	var winner string
	for round := 0; round < 3; round++ {
		sel, err := selectOn(t, ds, fc, genetic.Params{}, fams)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(sel.Scores["alpha"]) != math.Float64bits(sel.Scores["beta"]) {
			t.Fatalf("scores not tied: %v", sel.Scores)
		}
		if sel.Winner != "alpha" && sel.Winner != "beta" {
			t.Fatalf("winner %q not among tied families", sel.Winner)
		}
		if round == 0 {
			winner = sel.Winner
		} else if sel.Winner != winner {
			t.Fatalf("tiebreak not deterministic: round 0 chose %q, round %d chose %q",
				winner, round, sel.Winner)
		}
	}
	// A tie is broken by the split seed: the draw must be reproducible from
	// FitnessConfig.Seed alone, not process state.
	sel, err := selectOn(t, ds, fc, genetic.Params{}, fams)
	if err != nil {
		t.Fatal(err)
	}
	if sel.Winner != winner {
		t.Fatalf("same seed re-ran chose %q, want %q", sel.Winner, winner)
	}
}

// TestFamilySelectionSkipsFailingFamily: a family whose Fit errors is
// recorded and skipped; the round still publishes the best survivor.
func TestFamilySelectionSkipsFailingFamily(t *testing.T) {
	m := newSmallModeler(t)
	bad := &fakeFamily{name: "bad", err: errors.New("synthetic fit failure")}
	m.Families = []family.Family{bad, spline.New()}
	if err := m.Train(context.Background()); err != nil {
		t.Fatal(err)
	}
	rep := m.Report()
	if rep.Rung != RungGenetic || rep.Family != spline.FamilyName {
		t.Fatalf("rung=%v family=%q, want genetic/spline (report: %v)", rep.Rung, rep.Family, rep)
	}
	if bad.fits != 1 {
		t.Errorf("failing family fitted %d times, want 1", bad.fits)
	}
	if ferr, ok := rep.FamilyErrors["bad"]; !ok || ferr == nil {
		t.Errorf("report did not record the failing family: %v", rep.FamilyErrors)
	}
	if _, scored := rep.FamilyScores["bad"]; scored {
		t.Errorf("failing family must not be scored: %v", rep.FamilyScores)
	}
	if !m.Snapshot().Trained() {
		t.Error("round with one failing family must still publish a model")
	}
}

// TestFamilySelectionAllFailDegradesToStepwise: when every family fails, the
// top rung errors with ErrAllFamiliesFailed and Train falls to the stepwise
// spline floor.
func TestFamilySelectionAllFailDegradesToStepwise(t *testing.T) {
	m := newSmallModeler(t)
	m.Families = []family.Family{
		&fakeFamily{name: "bad1", err: errors.New("boom 1")},
		&fakeFamily{name: "bad2", err: errors.New("boom 2")},
	}
	if err := m.Train(context.Background()); err != nil {
		t.Fatal(err)
	}
	rep := m.Report()
	if rep.Rung != RungStepwise {
		t.Fatalf("rung = %v, want stepwise (report: %v)", rep.Rung, rep)
	}
	if !errors.Is(rep.GeneticErr, ErrAllFamiliesFailed) {
		t.Errorf("GeneticErr = %v, want ErrAllFamiliesFailed", rep.GeneticErr)
	}
	if len(rep.FamilyErrors) != 2 {
		t.Errorf("recorded %d family errors, want 2: %v", len(rep.FamilyErrors), rep.FamilyErrors)
	}
	if m.Snapshot().Family() != spline.FamilyName {
		t.Errorf("stepwise floor family %q, want spline", m.Snapshot().Family())
	}
}

// TestFamilySelectionCancellation: cancelling mid-round aborts the episode
// and never replaces the served snapshot.
func TestFamilySelectionCancellation(t *testing.T) {
	m := newSmallModeler(t)
	if err := m.Train(context.Background()); err != nil {
		t.Fatal(err)
	}
	incumbent := m.Snapshot()

	blocker := &fakeFamily{name: "slow"}
	m.Families = []family.Family{blocker, spline.New()}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := m.Train(ctx)
	if err == nil {
		t.Fatal("cancelled selection round must error")
	}
	if !errors.Is(err, context.Canceled) && !errors.Is(err, genetic.ErrCancelled) {
		t.Errorf("err = %v, want a cancellation error", err)
	}
	if m.Snapshot() != incumbent {
		t.Error("cancelled round replaced the served snapshot")
	}
}

// TestFamilySelectionFailureKeepsErrorIdentity: when every family of a
// two-family round fails, the round's error still matches the search's
// typed errors — ErrEvalPanic under a panicking evaluator, ErrCancelled
// under a dead context — beside ErrAllFamiliesFailed, and so does the error
// Train returns. A failed run leaves the served snapshot as it was.
func TestFamilySelectionFailureKeepsErrorIdentity(t *testing.T) {
	m := newSmallModeler(t)
	m.Families = []family.Family{spline.New(), dal.New()}
	panicAlways(m)
	err := m.Train(context.Background())
	rep := m.Report()
	if err == nil {
		t.Fatalf("every rung should fail under unlimited panics (report: %v)", rep)
	}
	if !errors.Is(err, ErrAllFamiliesFailed) || !errors.Is(err, genetic.ErrEvalPanic) {
		t.Errorf("err = %v, want ErrAllFamiliesFailed and ErrEvalPanic", err)
	}
	if !errors.Is(rep.GeneticErr, ErrAllFamiliesFailed) || !errors.Is(rep.GeneticErr, genetic.ErrEvalPanic) {
		t.Errorf("GeneticErr = %v, want ErrAllFamiliesFailed and ErrEvalPanic", rep.GeneticErr)
	}
	if len(rep.FamilyErrors) != 2 {
		t.Errorf("recorded %d family errors, want 2: %v", len(rep.FamilyErrors), rep.FamilyErrors)
	}

	m, _ = trainSmallModeler(t)
	m.Families = []family.Family{spline.New(), dal.New()}
	served := m.Published()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err = m.Train(ctx)
	rep = m.Report()
	if !errors.Is(err, genetic.ErrCancelled) {
		t.Fatalf("err = %v, want ErrCancelled (report: %v)", err, rep)
	}
	if rep.Rung != RungNone {
		t.Fatalf("rung = %v, want none (report: %v)", rep.Rung, rep)
	}
	if !errors.Is(rep.GeneticErr, genetic.ErrCancelled) {
		t.Errorf("GeneticErr = %v, want ErrCancelled", rep.GeneticErr)
	}
	if p := m.Published(); p.Snapshot != served.Snapshot || p.Generation != served.Generation {
		t.Errorf("cancelled run published generation %d, want the served %d unchanged", p.Generation, served.Generation)
	}
}

// TestFamilySelectionCancelKeepsPopulation: a two-family round cancelled
// in the middle of the spline search hands back the search's partial
// population, and the trainer keeps it to warm-start the next run.
func TestFamilySelectionCancelKeepsPopulation(t *testing.T) {
	m := newSmallModeler(t)
	m.Families = []family.Family{spline.New(), dal.New()}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	m.Search.OnGeneration = func(gs genetic.GenStats) {
		if gs.Gen == 1 {
			cancel()
		}
	}
	err := m.Train(ctx)
	if !errors.Is(err, genetic.ErrCancelled) {
		t.Fatalf("err = %v, want ErrCancelled", err)
	}
	if m.Snapshot().Trained() {
		t.Fatal("cancelled round published a model")
	}
	if got := len(m.Population()); got != m.Search.PopulationSize {
		t.Fatalf("trainer kept %d individuals of the cancelled search, want %d", got, m.Search.PopulationSize)
	}
}

// TestSelectionRoundValidation covers the harness's edge cases: an empty
// family list selects the spline family alone, and a round in which every
// family fails returns ErrAllFamiliesFailed joined with the families'
// errors, beside a result carrying them by name.
func TestSelectionRoundValidation(t *testing.T) {
	ds := ToDataset(smallCollector().Collect(smallApps(), 40, 1))
	search := genetic.Params{PopulationSize: 8, Generations: 2, Seed: 1}
	sel, err := selectOn(t, ds, FitnessConfig{}, search, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sel.Winner != spline.FamilyName || len(sel.Scores) != 1 || sel.Population == nil {
		t.Errorf("empty family list: winner %q, scores %v, population %d; want the spline family alone",
			sel.Winner, sel.Scores, len(sel.Population))
	}

	nope := fmt.Errorf("nope")
	fams := []family.Family{&fakeFamily{name: "a", err: nope}}
	sel, err = selectOn(t, ds, FitnessConfig{}, search, fams)
	if !errors.Is(err, ErrAllFamiliesFailed) || !errors.Is(err, nope) {
		t.Errorf("err = %v, want ErrAllFamiliesFailed joined with the family's error", err)
	}
	if sel == nil || sel.Errors["a"] == nil {
		t.Errorf("partial result must carry the per-family errors: %+v", sel)
	}
}

// TestSelectionRoundGolden pins one selection round over the three built-in
// families bit for bit: every family's score, the winner, and the winner's
// predictions on held-out rows it never saw. Any change to how a family fits
// or how the round scores its candidates moves the hash.
func TestSelectionRoundGolden(t *testing.T) {
	col := smallCollector()
	ds := ToDataset(col.Collect(smallApps(), 24, 5))
	held := ToDataset(col.Collect(smallApps(), 6, 17))
	sel, err := selectOn(t, ds, FitnessConfig{Seed: 11},
		genetic.Params{PopulationSize: 10, Generations: 2, Seed: 3}, DefaultFamilies())
	if err != nil {
		t.Fatalf("selection round: %v (per-family: %v)", err, sel.Errors)
	}
	if len(sel.Scores) != 3 {
		t.Fatalf("scores %v (errors %v), want all three families", sel.Scores, sel.Errors)
	}

	h := sha256.New()
	var b [8]byte
	put := func(f float64) {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(f))
		h.Write(b[:])
	}
	names := make([]string, 0, len(sel.Scores))
	for name := range sel.Scores {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(h, "%s|", name)
		put(sel.Scores[name])
	}
	fmt.Fprintf(h, "winner %s|", sel.Winner)
	heldRows := make([][]float64, held.NumRows())
	for i := range heldRows {
		heldRows[i] = held.X.Row(i)
	}
	heldPred := make([]float64, len(heldRows))
	sel.Model.PredictBatch(heldRows, heldPred)
	for _, p := range heldPred {
		put(p)
	}
	const want = "8e4e14db59c10df46fd283141b37044a75abbd6b08954e2c8a9ee00990098ffd"
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("selection hash %s, want %s (winner %s, scores %v)", got, want, sel.Winner, sel.Scores)
	}
}
