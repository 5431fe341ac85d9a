// Wire schema: the one JSON vocabulary spoken by the hsserve HTTP service,
// the hsinfer CLI, and any external tooling. Every request and response body
// of the API is one of these types, so a sample captured with hsinfer
// can be POSTed to hsserve unchanged and a prediction printed by either tool
// round-trips through the same struct.
//
// Hardware on the wire is either `arch` — the thirteen Table 2 level
// indices, the compact external handle — or `config`, a fully specified
// microarchitecture. When both are present, `config` wins; when both are
// absent, the baseline configuration is assumed.
package hsmodel

import (
	"fmt"
	"math"
	"reflect"

	"hsmodel/internal/hwspace"
)

// SampleWire is the wire form of a Sample: one sparse profile observation.
type SampleWire struct {
	// App optionally names the application the shard came from.
	App string `json:"app,omitempty"`
	// AppID groups rows by application for the per-application fitness.
	AppID int `json:"app_id"`
	// Shard is the shard index within the application's timeline.
	Shard int `json:"shard,omitempty"`
	// X holds the thirteen Table 1 software characteristics.
	X []float64 `json:"x"`
	// Arch gives the architecture as Table 2 level indices.
	Arch []int `json:"arch,omitempty"`
	// Config gives the architecture fully specified (wins over Arch).
	Config *Config `json:"config,omitempty"`
	// CPI is the measured performance of (X, architecture); it must be
	// finite and positive.
	CPI float64 `json:"cpi"`
}

// PredictRequest asks for a single-shard or whole-application prediction:
// exactly one of X (one shard) or Shards (per-shard characteristics,
// aggregated as the paper does) must be set.
type PredictRequest struct {
	X      []float64   `json:"x,omitempty"`
	Shards [][]float64 `json:"shards,omitempty"`
	Arch   []int       `json:"arch,omitempty"`
	Config *Config     `json:"config,omitempty"`
}

// PredictResponse is the answer to a PredictRequest.
type PredictResponse struct {
	// CPI is the predicted performance.
	CPI float64 `json:"cpi"`
	// Shards is the number of shard predictions aggregated (1 for a
	// single-shard query).
	Shards int `json:"shards"`
}

// BatchPredictRequest carries many predictions in one round trip; the server
// additionally coalesces items across concurrent requests into shared
// evaluator passes.
type BatchPredictRequest struct {
	Requests []PredictRequest `json:"requests"`
}

// BatchPredictItem is one result in a batch; exactly one of the embedded
// response or Error is meaningful.
type BatchPredictItem struct {
	CPI    float64 `json:"cpi,omitempty"`
	Shards int     `json:"shards,omitempty"`
	Error  string  `json:"error,omitempty"`
}

// BatchPredictResponse answers a BatchPredictRequest, Results parallel to
// Requests.
type BatchPredictResponse struct {
	Results []BatchPredictItem `json:"results"`
}

// SamplesRequest feeds new profiles into the served trainer's store, which
// holds at most 16,384 rows. A batch that would overflow the addressed
// entry's store answers 507 with an ErrorResponse: nothing is absorbed and
// no update starts.
type SamplesRequest struct {
	Samples []SampleWire `json:"samples"`
	// Update asks the server to re-specify the model asynchronously once the
	// samples are absorbed. A failed re-specification never replaces the
	// served snapshot.
	Update bool `json:"update,omitempty"`
	// FanOut asks the server to fan the samples out to every registered
	// model whose application scope matches each sample instead of feeding
	// only the addressed model. An entry whose store is full takes none of
	// them and is left out of SamplesResponse.Models; the request still
	// answers 200.
	FanOut bool `json:"fan_out,omitempty"`
}

// SamplesResponse acknowledges absorbed profiles.
type SamplesResponse struct {
	Accepted int `json:"accepted"`
	// TotalSamples counts the addressed entry trainer's store. On an entry
	// with a control loop the posted samples go to the loop's bounded
	// stores instead, and the trainer's store changes only when a promotion
	// replaces it; the loop's store sizes are on
	// GET /v2/models/{id}/lifecycle.
	TotalSamples  int  `json:"total_samples"`
	UpdateStarted bool `json:"update_started"`
	// Models lists the registered models the samples fanned out to, sorted;
	// set only when the request asked for fan_out.
	Models []string `json:"models,omitempty"`
}

// ModelInfo describes the currently served snapshot and its provenance.
type ModelInfo struct {
	// Model is the registry id the info describes.
	Model string `json:"model,omitempty"`
	// Application is the entry's application scope ("" = every application);
	// ArchSpace names its architecture space.
	Application string `json:"application,omitempty"`
	ArchSpace   string `json:"arch_space,omitempty"`
	Trained     bool   `json:"trained"`
	// Family names the model family serving predictions ("spline",
	// "residual", "dal"); FamilyScores carries the per-family CV MedAPE of
	// the selection round that chose it (absent for a stepwise model).
	Family       string             `json:"family,omitempty"`
	FamilyScores map[string]float64 `json:"family_scores,omitempty"`
	Spec         string             `json:"spec,omitempty"`
	Terms        int                `json:"terms,omitempty"`
	// Detail is family-specific provenance (prior name, cluster count).
	Detail      string `json:"detail,omitempty"`
	Rung        string `json:"rung,omitempty"`
	TrainedRows int    `json:"trained_rows,omitempty"`
	ShardLen    int    `json:"shard_len,omitempty"`
	// TotalSamples counts the trainer's profile store, including samples not
	// yet trained on (on an entry with a control loop, see
	// SamplesResponse.TotalSamples).
	TotalSamples int `json:"total_samples"`
	// SnapshotVersion counts the model publications made by the entry's
	// trainer (either rung of a training run, reloads, lifecycle
	// promotions), 0 before the first; SnapshotAgeSec is the seconds since
	// the latest one was published, 0 before the first.
	SnapshotVersion uint64  `json:"snapshot_version"`
	SnapshotAgeSec  float64 `json:"snapshot_age_sec"`
	// GramFits / QRFallbacks are the candidate-fit path counters of the
	// trainer's most recent Train run, failed runs included
	// (Trainer.Report().Gram).
	GramFits    uint64 `json:"gram_fits"`
	QRFallbacks uint64 `json:"qr_fallbacks"`
}

// ErrorResponse is the body of every non-2xx API answer, and the JSON error
// form the CLI prints in -json mode — including snapshot persistence
// failures, whose typed ErrModel* messages pass through verbatim.
type ErrorResponse struct {
	Error string `json:"error"`
}

// DefaultModelID is the reserved registry entry that serves hsserve's own
// trainer (the -model, -bootstrap and -lifecycle model), addressed as
// /v2/models/default and by an unscoped Client. The id cannot be registered
// or unregistered over the wire.
const DefaultModelID = "default"

// LifecycleWire is the wire form of a per-model continuous-learning
// configuration: the common knobs, with zero values taking the loop's
// documented defaults.
type LifecycleWire struct {
	// DriftThreshold is the CUSUM mass that trips the drift detector.
	DriftThreshold float64 `json:"drift_threshold,omitempty"`
	// MinProfiles is how many fresh post-drift profiles gather before a
	// shadow retrain starts.
	MinProfiles int `json:"min_profiles,omitempty"`
	// CanaryTolerance is the candidate's relative slack on the canary set.
	CanaryTolerance float64 `json:"canary_tolerance,omitempty"`
	// Seed determinizes every loop decision.
	Seed uint64 `json:"seed,omitempty"`
}

// RegisterRequest declares one model entry: the body of POST /v2/models and
// one element of the hsserve -models manifest — the same schema in both
// places, so a manifest entry can be replayed against a live server
// unchanged.
type RegisterRequest struct {
	// ID is the registry key: 1 to 64 characters of A-Z, a-z, 0-9, '.', '_'
	// and '-' ("default" is reserved).
	ID string `json:"id"`
	// Application scopes sample fan-out to one application's profiles;
	// empty absorbs every application.
	Application string `json:"application,omitempty"`
	// ArchSpace names the architecture space: "table2" (the default, and the
	// only space accepted).
	ArchSpace string `json:"arch_space,omitempty"`
	// ModelPath optionally names a persisted snapshot the entry adopts once,
	// at registration. Only the reserved default entry reloads from disk
	// (hsserve -model, on SIGHUP); a registered entry serves what it loaded
	// until it retrains.
	ModelPath string `json:"model_path,omitempty"`
	// Families lists model families for per-entry selection rounds.
	Families []string `json:"families,omitempty"`
	// Seed determinizes the entry's search and splits.
	Seed uint64 `json:"seed,omitempty"`
	// ShardLen is recorded in published snapshots.
	ShardLen int `json:"shard_len,omitempty"`
	// Population / Generations bound the entry's genetic search.
	Population  int `json:"population,omitempty"`
	Generations int `json:"generations,omitempty"`
	// Lifecycle, when non-nil, attaches a continuous-learning loop.
	Lifecycle *LifecycleWire `json:"lifecycle,omitempty"`
}

// Manifest is the hsserve -models file: the set of model entries a server
// registers at boot and rewrites after every successful wire
// register/unregister (the reserved default entry is never persisted).
type Manifest struct {
	Models []RegisterRequest `json:"models"`
}

// ModelStatus summarizes one registry entry in GET /v2/models.
type ModelStatus struct {
	ID          string `json:"id"`
	Application string `json:"application,omitempty"`
	ArchSpace   string `json:"arch_space"`
	Trained     bool   `json:"trained"`
	Family      string `json:"family,omitempty"`
	Rung        string `json:"rung,omitempty"`
	TrainedRows int    `json:"trained_rows,omitempty"`
	// TotalSamples counts the entry's profile store, including rows not yet
	// trained on.
	TotalSamples int `json:"total_samples"`
	// SnapshotVersion counts the entry trainer's model publications, as in
	// ModelInfo.
	SnapshotVersion uint64 `json:"snapshot_version"`
	// QueueDepth is the entry's queued predictions at scrape time.
	QueueDepth int `json:"queue_depth"`
	// Lifecycle is the control-loop state ("stable", "retraining", ...);
	// empty when the loop is disabled.
	Lifecycle string   `json:"lifecycle,omitempty"`
	ModelPath string   `json:"model_path,omitempty"`
	Families  []string `json:"families,omitempty"`
}

// RegistryStatus is the body of GET /v2/models: every entry plus the
// registry-wide load state.
type RegistryStatus struct {
	Models []ModelStatus `json:"models"`
	// QueueDepth is the sum of the listed entries' QueueDepth.
	QueueDepth int `json:"queue_depth"`
	// Default is the reserved entry id serving hsserve's own trainer.
	Default string `json:"default"`
}

// ConfigFromArch validates Table 2 level indices from the wire and expands
// them, unlike ConfigFromIndices, without panicking on bad input.
func ConfigFromArch(arch []int) (Config, error) {
	if len(arch) != NumHWParams {
		return Config{}, fmt.Errorf("hsmodel: arch needs %d level indices, got %d", NumHWParams, len(arch))
	}
	counts := hwspace.LevelCounts()
	var ix Indices
	for i, a := range arch {
		if a < 0 || a >= counts[i] {
			return Config{}, fmt.Errorf("hsmodel: arch[%d] = %d out of range for %s (0-%d)",
				i, a, hwspace.Names[i], counts[i]-1)
		}
		ix[i] = a
	}
	return hwspace.FromIndices(ix), nil
}

// ConfigFromWire resolves the wire's two hardware encodings: config if
// present, else arch, else the baseline. A full config is checked field by
// field: every Table 2 quantity (widths, queue and cache sizes, latencies,
// unit counts) is at least 1, so a field below 1 is rejected by name.
func ConfigFromWire(arch []int, cfg *Config) (Config, error) {
	if cfg != nil {
		v := reflect.ValueOf(*cfg)
		for i := 0; i < v.NumField(); i++ {
			if n := v.Field(i).Int(); n < 1 {
				return Config{}, fmt.Errorf("hsmodel: config %s is %d, want at least 1", v.Type().Field(i).Name, n)
			}
		}
		return *cfg, nil
	}
	if len(arch) > 0 {
		return ConfigFromArch(arch)
	}
	return Baseline(), nil
}

// characteristicsFromWire validates and converts one shard's wire vector.
func characteristicsFromWire(x []float64) (Characteristics, error) {
	var c Characteristics
	if len(x) != NumCharacteristics {
		return c, fmt.Errorf("hsmodel: x needs %d characteristics, got %d", NumCharacteristics, len(x))
	}
	copy(c[:], x)
	return c, nil
}

// ToSample converts the wire form into a modeling Sample. A CPI that is not
// finite and positive is rejected: the trainer fits its logarithm.
func (w SampleWire) ToSample() (Sample, error) {
	if !(w.CPI > 0) || math.IsInf(w.CPI, 1) {
		return Sample{}, fmt.Errorf("hsmodel: cpi %v is not a finite positive value", w.CPI)
	}
	x, err := characteristicsFromWire(w.X)
	if err != nil {
		return Sample{}, err
	}
	hw, err := ConfigFromWire(w.Arch, w.Config)
	if err != nil {
		return Sample{}, err
	}
	return Sample{App: w.App, AppID: w.AppID, Shard: w.Shard, X: x, HW: hw, CPI: w.CPI}, nil
}

// SampleToWire converts a modeling Sample to its wire form (full config
// encoding, which survives round-trips exactly).
func SampleToWire(s Sample) SampleWire {
	hw := s.HW
	return SampleWire{
		App:    s.App,
		AppID:  s.AppID,
		Shard:  s.Shard,
		X:      append([]float64(nil), s.X[:]...),
		Config: &hw,
		CPI:    s.CPI,
	}
}

// SnapshotInfo maps a snapshot to the ModelInfo fields it determines: its
// family and selection scores, structure (spec, terms, detail), ladder rung,
// trained rows and shard length. An untrained or nil snapshot maps to
// Trained false and nothing else. hsinfer model -json prints it as is; the
// server's model route adds its entry and store fields on top.
func SnapshotInfo(snap *Snapshot) ModelInfo {
	if !snap.Trained() {
		return ModelInfo{}
	}
	desc := snap.Describe()
	return ModelInfo{
		Trained:      true,
		Family:       snap.Family(),
		FamilyScores: snap.FamilyScores(),
		Spec:         desc.Spec,
		Terms:        desc.Terms,
		Detail:       desc.Detail,
		Rung:         snap.Rung().String(),
		TrainedRows:  snap.TrainedRows(),
		ShardLen:     snap.ShardLen(),
	}
}

// ShardInputs converts a PredictRequest's software side into shard
// characteristic vectors (length 1 for a single-shard query) plus the
// resolved hardware configuration.
func (r PredictRequest) ShardInputs() ([]Characteristics, Config, error) {
	hw, err := ConfigFromWire(r.Arch, r.Config)
	if err != nil {
		return nil, Config{}, err
	}
	switch {
	case len(r.X) > 0 && len(r.Shards) > 0:
		return nil, Config{}, fmt.Errorf("hsmodel: predict request sets both x and shards")
	case len(r.X) > 0:
		x, err := characteristicsFromWire(r.X)
		if err != nil {
			return nil, Config{}, err
		}
		return []Characteristics{x}, hw, nil
	case len(r.Shards) > 0:
		xs := make([]Characteristics, len(r.Shards))
		for i, sx := range r.Shards {
			x, err := characteristicsFromWire(sx)
			if err != nil {
				return nil, Config{}, fmt.Errorf("hsmodel: shard %d: %w", i, err)
			}
			xs[i] = x
		}
		return xs, hw, nil
	default:
		return nil, Config{}, fmt.Errorf("hsmodel: predict request needs x or shards")
	}
}
