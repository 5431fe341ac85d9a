package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// SavedModel is the serializable form of a model Snapshot: the owning
// family's name plus its self-contained payload (for the reference spline
// family, the fitted regression's specification, preprocessing, and
// coefficients), the shard length its profiles were measured at, so a loaded
// model profiles new shards consistently, and provenance metadata (which
// ladder rung produced it, how many rows it was fitted on, the per-family
// scores of the selection round that chose it).
type SavedModel struct {
	// Version guards the on-disk format.
	Version int `json:"version"`
	// ShardLen is the profiling shard length in instructions.
	ShardLen int `json:"shard_len"`
	// Rung names the degradation-ladder rung that produced the model
	// ("genetic", "stepwise"); "family", written by earlier
	// builds for a selection round, loads as RungGenetic, and unknown names
	// load as RungNone.
	Rung string `json:"rung,omitempty"`
	// TrainedRows is the number of profile rows the model was fitted on.
	TrainedRows int `json:"trained_rows,omitempty"`
	// Family names the model family that owns Payload.
	Family string `json:"family,omitempty"`
	// FamilyScores records the per-family scores of the selection round
	// that chose this model; absent for a stepwise model.
	FamilyScores map[string]float64 `json:"family_scores,omitempty"`
	// Checksum is the hex SHA-256 of the payload's compact JSON encoding.
	// Load recomputes it so torn or bit-rotted files are detected instead of
	// half-loaded. Payload JSON is deterministic: the structs have fixed
	// field order and float64 round-trips exactly through encoding/json.
	Checksum string `json:"checksum"`
	// Payload is the family-owned model encoding.
	Payload json.RawMessage `json:"payload,omitempty"`
}

// savedModelVersion is the one format version Save writes and LoadSnapshot
// reads: the model is a family-owned payload keyed by the family name. Files
// of earlier versions (a bare spline regression under a "model" key) are
// refused with ErrModelVersion.
const savedModelVersion = 4

// Typed persistence errors, distinguishable with errors.Is. They are the
// contract the degradation ladder and operators rely on: each names a
// different corruption mode of a model file.
var (
	// ErrModelCorrupt: the file is not valid JSON (torn write, garbage).
	ErrModelCorrupt = errors.New("core: model file is not valid JSON")
	// ErrModelVersion: the format version is not the one this build reads.
	ErrModelVersion = errors.New("core: model file version mismatch")
	// ErrModelIncomplete: structurally valid JSON missing required parts.
	ErrModelIncomplete = errors.New("core: saved model is incomplete")
	// ErrModelChecksum: the payload does not match its recorded checksum.
	ErrModelChecksum = errors.New("core: model payload checksum mismatch")
	// ErrModelFamily: the family name is unknown to this build, or the
	// family rejected its payload — one that does not fit the variable
	// space or whose preprocessing, spec and coefficients disagree
	// (regress.Model.Validate).
	ErrModelFamily = errors.New("core: model family unknown or payload invalid")
	// ErrModelNotRegular: the path is a directory, device, pipe or socket.
	ErrModelNotRegular = errors.New("core: model path is not a regular file")
	// ErrModelTooLarge: the file is longer than maxModelFileBytes.
	ErrModelTooLarge = errors.New("core: model file too large")
)

// maxModelFileBytes bounds what LoadSnapshot reads. The largest model the
// format holds, a DAL payload of five regressions with at most 181
// coefficients (1 + 26 variables x 6 spline columns + 24 interactions) and
// 208 preprocessing values each, is about 2,200 numbers: under 64 KB
// indented. A Quick-scale model measures under 8 KB; 1 MiB is 16x the
// largest.
const maxModelFileBytes = 1 << 20

// payloadChecksum returns the hex SHA-256 of the payload's compact JSON
// encoding. Compaction first is load-bearing: Save writes the file with
// MarshalIndent, which re-indents the embedded raw payload, so the bytes on
// disk are whitespace-shifted relative to the family's Payload output. Both
// Save and Load therefore hash the compacted form, which survives any
// JSON-preserving rewrite of the file.
func payloadChecksum(payload json.RawMessage) (string, error) {
	var buf bytes.Buffer
	if err := json.Compact(&buf, payload); err != nil {
		return "", err
	}
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:]), nil
}

// Save serializes the snapshot to path as indented JSON through
// WriteFileAtomic, so a crash mid-save leaves either the old model or the
// new one — never a torn file.
func (s *Snapshot) Save(path string) error {
	if !s.Trained() {
		return errors.New("core: Save before Train")
	}
	payload, err := s.fam.Payload()
	if err != nil {
		return fmt.Errorf("core: encoding model: %w", err)
	}
	sum, err := payloadChecksum(payload)
	if err != nil {
		return fmt.Errorf("core: encoding model: %w", err)
	}
	data, err := json.MarshalIndent(SavedModel{
		Version:      savedModelVersion,
		ShardLen:     s.shardLen,
		Rung:         s.rung.String(),
		TrainedRows:  s.trainedRows,
		Family:       s.famName,
		FamilyScores: s.scores,
		Checksum:     sum,
		Payload:      payload,
	}, "", " ")
	if err != nil {
		return fmt.Errorf("core: encoding model: %w", err)
	}
	if err := WriteFileAtomic(path, data); err != nil {
		return fmt.Errorf("core: saving model: %w", err)
	}
	return nil
}

// WriteFileAtomic replaces path with data crash-safely: data goes to a
// fresh temp file beside path, is synced to stable storage, made
// world-readable (0644) and renamed over path, so a reader or a crash sees
// the old file or the new one, never a torn one.
func WriteFileAtomic(path string, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	_, err = tmp.Write(data)
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Chmod(tmp.Name(), 0o644)
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	return err
}

// LoadSnapshot reads a snapshot saved by Save, verifying format version,
// family, structural completeness, variable count, and payload checksum;
// each failure mode returns a distinct typed error (see ErrModel*). The
// returned Snapshot predicts immediately; hand it to Trainer.Adopt to serve
// it from a trainer and continue training with AddSamples and Train.
func LoadSnapshot(path string) (*Snapshot, error) {
	// Stat before opening: a pipe would block the open, a device never end.
	info, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	if !info.Mode().IsRegular() {
		return nil, fmt.Errorf("%w: %s", ErrModelNotRegular, info.Mode().Type())
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	data, err := io.ReadAll(io.LimitReader(f, maxModelFileBytes+1))
	f.Close()
	if err != nil {
		return nil, err
	}
	if len(data) > maxModelFileBytes {
		return nil, fmt.Errorf("%w: over %d bytes", ErrModelTooLarge, maxModelFileBytes)
	}
	var saved SavedModel
	if err := json.Unmarshal(data, &saved); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrModelCorrupt, err)
	}
	if saved.Version != savedModelVersion {
		return nil, fmt.Errorf("%w: found %d, want %d",
			ErrModelVersion, saved.Version, savedModelVersion)
	}
	if saved.Family == "" || len(saved.Payload) == 0 {
		return nil, ErrModelIncomplete
	}
	fam := FamilyByName(saved.Family)
	if fam == nil {
		return nil, fmt.Errorf("%w: %q", ErrModelFamily, saved.Family)
	}
	sum, err := payloadChecksum(saved.Payload)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrModelCorrupt, err)
	}
	if sum != saved.Checksum {
		return nil, fmt.Errorf("%w: stored %.12s…, computed %.12s…",
			ErrModelChecksum, saved.Checksum, sum)
	}
	model, err := fam.Load(saved.Payload, NumVars)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrModelFamily, err)
	}
	return newSnapshot(saved.Family, model, saved.FamilyScores,
		saved.ShardLen, parseRung(saved.Rung), saved.TrainedRows), nil
}
