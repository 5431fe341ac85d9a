package experiments

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"io"
	"math"
	"sort"
	"testing"

	"hsmodel/internal/regress"
	"hsmodel/internal/stats"
)

// TestExtrapolationFiguresGolden pins, bit for bit, everything the §4
// extrapolation figures return at a small scale: Fig 7b (accuracy, the
// compiler-optimization effect and the update decision), Fig 7c, Fig 9 (the
// characteristic deltas, both CPI histograms and the mode count) and Fig 10.
// A change meant to keep these figures' numbers, or a result that depends on
// the worker count, fails here.
func TestExtrapolationFiguresGolden(t *testing.T) {
	cfg := Quick()
	cfg.ShardLen = 10_000
	cfg.ShardPool = 12
	cfg.TrainPerApp = 30
	cfg.ValidationPairs = 28
	cfg.Pop = 10
	cfg.Generations = 3
	cfg.Out = io.Discard
	w := NewWorkspace(cfg)

	g := goldenHash{Hash: sha256.New()}
	f7b, err := Fig7b(w)
	if err != nil {
		t.Fatal(err)
	}
	g.accuracy(f7b.Accuracy)
	g.floats(f7b.OptEffectMax, f7b.OptEffectMean)
	fmt.Fprintf(g, "updated %v|", f7b.Updated)

	f7c, err := Fig7c(w)
	if err != nil {
		t.Fatal(err)
	}
	g.perApp(f7c.PerApp)
	g.accuracy(f7c.Overall)
	fmt.Fprintf(g, "updated %d|", f7c.Updated)

	f9 := Fig9(w)
	names := make([]string, 0, len(f9.Deltas))
	for name := range f9.Deltas {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(g, "%s|", name)
		d := f9.Deltas[name]
		g.floats(d[:]...)
	}
	g.histogram(f9.CPIBwaves)
	g.histogram(f9.CPIOthers)
	fmt.Fprintf(g, "modes %d|", f9.BwavesModes)

	f10, err := Fig10(w)
	if err != nil {
		t.Fatal(err)
	}
	g.perApp(f10.PerApp)
	g.accuracy(f10.Overall)

	const want = "a7446beafa3c3dbbeecfcf722155a4a469770aabbd72b867031005f600957439"
	if got := hex.EncodeToString(g.Sum(nil)); got != want {
		t.Errorf("extrapolation figures hash %s, want %s (7b %+v, 7c %+v, 10 %+v)",
			got, want, f7b.Accuracy.Metrics, f7c.Overall.Metrics, f10.Overall.Metrics)
	}
}

// goldenHash feeds Float64bits and labels of experiment results to a hash.
type goldenHash struct{ hash.Hash }

func (g goldenHash) floats(fs ...float64) {
	var b [8]byte
	for _, f := range fs {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(f))
		g.Write(b[:])
	}
}

func (g goldenHash) metrics(m regress.Metrics) {
	g.floats(m.MedAPE, m.MeanAPE, m.Pearson, m.Spearman, m.R2)
	fmt.Fprintf(g, "n %d|", m.N)
}

func (g goldenHash) accuracy(a AccuracyResult) {
	fmt.Fprintf(g, "%s|", a.Name)
	e := a.Errors
	g.floats(e.Min, e.Q1, e.Median, e.Q3, e.Max, e.Mean)
	fmt.Fprintf(g, "n %d|", e.N)
	g.metrics(a.Metrics)
	apps := make([]string, 0, len(a.PerApp))
	for app := range a.PerApp {
		apps = append(apps, app)
	}
	sort.Strings(apps)
	for _, app := range apps {
		fmt.Fprintf(g, "%s|", app)
		g.floats(a.PerApp[app])
	}
}

func (g goldenHash) perApp(m map[string]regress.Metrics) {
	apps := make([]string, 0, len(m))
	for app := range m {
		apps = append(apps, app)
	}
	sort.Strings(apps)
	for _, app := range apps {
		fmt.Fprintf(g, "%s|", app)
		g.metrics(m[app])
	}
}

func (g goldenHash) histogram(h stats.Histogram) {
	g.floats(h.Lo, h.Hi)
	fmt.Fprintf(g, "%v %d|", h.Counts, h.Total)
}
