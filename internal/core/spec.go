package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"repro/internal/offload"
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
	// MapInstall, when non-nil, pre-installs a stored transparent mapping at
	// system construction instead of running a learning phase (see
	// Session.WithStoredMapping). Every field folds into the
	// digest: a stored-mapping run and the fresh-learning run of the same
	// configuration are different measurements (no learning-phase PCIe
	// detour) and must never share a cache record.
	MapInstall *MapInstallSpec
}

// MapInstallSpec carries a stored mapping into a run: the learned bit, the
// allocation ranges it covers, the learning-phase PCIe byte volume the
// install avoids (reported as Stats.LearnPCIeSaved), and the data-structure
// identity the record was keyed by (diagnostics; the install itself
// re-resolves ranges by name and fails loudly on a layout change).
type MapInstallSpec struct {
	Bit       int
	Ranges    []string
	SavedPCIe uint64
	Structure string
}

// NewRunSpec resolves a named configuration into a canonical spec.
func NewRunSpec(abbr string, scale float64, name ConfigName) (RunSpec, error) {
	cfg, err := buildConfig(name)
	if err != nil {
		return RunSpec{}, err
	}
	return RunSpec{Abbr: abbr, Scale: scale, Config: name, Cfg: cfg}, nil
}

// WithPolicy returns the spec with its offload policy overridden ("" keeps
// the configuration's own). The name is validated against the policy
// registry here, so an unknown one fails with the list of choices instead of
// panicking inside the simulator; it reaches the digest through both the
// canonical config string and the explicit policy fold, so overridden runs
// never alias the base configuration's cache records.
func (sp RunSpec) WithPolicy(policy string) (RunSpec, error) {
	if policy == "" {
		return sp, nil
	}
	if _, err := offload.ByName(policy); err != nil {
		return RunSpec{}, err
	}
	sp.Cfg.Policy = policy
	return sp, nil
}

// Key returns the human-readable run identity ("ABBR/config"), used for
// progress lines, trace run labels, and memo diagnostics.
func (sp RunSpec) Key() string {
	return sp.Abbr + "/" + string(sp.Config)
}

// Digest returns the spec's content hash: a hex SHA-256 over the workload,
// scale, configuration name, and the canonical simulator configuration.
// It is stable across processes and Go versions (the canonical string uses
// shortest-round-trip float formatting), making it a valid persistent
// cache key.
func (sp RunSpec) Digest() string {
	h := sha256.New()
	fmt.Fprintf(h, "workload=%s;scale=%v;config=%s;%s",
		sp.Abbr, sp.Scale, sp.Config, sp.Cfg.Canonical())
	// The offload policy's identity AND parameters participate: the policy
	// name alone already reaches the digest through Cfg.Canonical(), but a
	// policy's tunables (coda's window, mpu's spawn latency) live in the
	// policy object, not the Config — fold them so runs of differently
	// parameterized policies can never alias onto one cache record.
	if pol, err := offload.ByName(sp.Cfg.Policy); err == nil {
		fmt.Fprintf(h, "policy=%s{%s};", pol.Name(), pol.Params())
	} else {
		// Unknown policy: digest the raw name; the run itself will fail
		// loudly at sim.New, never silently alias.
		fmt.Fprintf(h, "policy=%s{?};", sp.Cfg.Policy)
	}
	if mi := sp.MapInstall; mi != nil {
		// Every install parameter participates — two installs differing in
		// bit, coverage, or provenance are different runs.
		fmt.Fprintf(h, "mapinstall=bit:%d,ranges:%q,saved:%d,structure:%s;",
			mi.Bit, mi.Ranges, mi.SavedPCIe, mi.Structure)
	}
	return hex.EncodeToString(h.Sum(nil))
}
