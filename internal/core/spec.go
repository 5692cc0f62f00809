package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"repro/internal/sim"
)

// RunSpec is the canonical identity of one simulation run: the workload,
// the problem scale, the named configuration, and the fully-resolved
// simulator configuration it materializes to. Every caching layer — the
// in-memory memo, the persistent result cache, and the observation policy's
// run labels — keys off the spec's digest, so two runs are interchangeable
// exactly when their specs digest identically.
type RunSpec struct {
	Abbr   string
	Scale  float64
	Config ConfigName
	// Cfg is the resolved simulator configuration. It participates in the
	// digest through its canonical string, so flipping any model parameter
	// (even one the named configuration doesn't touch) yields a new spec.
	Cfg sim.Config
}

// NewRunSpec resolves a named configuration into a canonical spec.
func NewRunSpec(abbr string, scale float64, name ConfigName) (RunSpec, error) {
	cfg, err := buildConfig(name)
	if err != nil {
		return RunSpec{}, err
	}
	return RunSpec{Abbr: abbr, Scale: scale, Config: name, Cfg: cfg}, nil
}

// Key returns the human-readable run identity ("ABBR/config"), used for
// progress lines, trace run labels, and memo diagnostics.
func (sp RunSpec) Key() string {
	return sp.Abbr + "/" + string(sp.Config)
}

// Digest returns the spec's content hash: a hex SHA-256 over the workload,
// scale, configuration name, and the canonical simulator configuration. The
// name counts: ctrl-tmap-preset and ctrl-oracle have ctrl-tmap's
// configuration but preset its mapping, so the three are different runs.
// It is stable across processes and Go versions (the canonical string uses
// shortest-round-trip float formatting), making it a valid persistent
// cache key.
func (sp RunSpec) Digest() string {
	h := sha256.New()
	// The offload policy's name reaches the digest through Cfg.Canonical();
	// its constants (coda's window, mpu's spawn latency) are code, covered
	// by the build fingerprint like every other model constant.
	fmt.Fprintf(h, "workload=%s;scale=%v;config=%s;%s",
		sp.Abbr, sp.Scale, sp.Config, sp.Cfg.Canonical())
	return hex.EncodeToString(h.Sum(nil))
}
