package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"path/filepath"

	"repro/internal/mapping"
	"repro/internal/sim"
)

// MappingRecord is the mapping registry's payload, one converged
// transparent-mapping learning phase: a human-readable restatement of the
// key (the key in the envelope and file name is authoritative), the learned
// mapping itself (bit + the allocation ranges it covers), and the
// learning-phase cost a later install avoids. A session that derives the same
// key installs Bit/Ranges at construction — no learning phase, no PCIe detour.
type MappingRecord struct {
	Workload string  `json:"workload"`
	Scale    float64 `json:"scale"`
	// Structure is the data-structure identity (mapping.StructureID) the bit
	// was learned on; a workload whose allocation layout changed derives a
	// different key and never sees this record.
	Structure string `json:"structure"`
	// Family is the canonical learning-relevant configuration (learnFamily):
	// configurations that differ only in post-learning parameters share it.
	Family string `json:"family"`

	Bit    int      `json:"bit"`
	Ranges []string `json:"ranges"`

	// Learning-phase cost of the run that produced the record — what a
	// stored install avoids (LearnPCIeBytes) or repeats (CopiedBytes).
	CopiedBytes    uint64 `json:"copied_bytes"`
	LearnPCIeBytes uint64 `json:"learn_pcie_bytes"`
	LearnInstances int    `json:"learn_instances"`
	LearnCycles    int64  `json:"learn_cycles"`
}

// validMapping is the gate both ends of the registry share: an out-of-range
// bit or an empty range list is never stored and never installed. Installing
// a malformed mapping would place data wrongly, which is strictly worse than
// re-learning.
func validMapping(bit int, ranges []string) bool {
	return bit >= mapping.MinBit && bit <= mapping.MaxBit && len(ranges) > 0
}

// newMappingStore opens the registry of learned transparent mappings, one
// record per (workload, scale, data-structure identity, learning-relevant
// configuration family) key under <cacheDir>/mappings/.
func newMappingStore(cacheDir, fingerprint string) *recordStore[MappingRecord] {
	return newRecordStore("mapping store", filepath.Join(cacheDir, "mappings"), fingerprint,
		func(r *MappingRecord) bool { return validMapping(r.Bit, r.Ranges) })
}

// learnFamily canonicalizes the learning-relevant subset of a configuration:
// parameters that cannot influence the learning phase are normalized to the
// Table 1 defaults before rendering, so configurations that differ only
// post-learning (offload control mode and its gates, stack-side capacity and
// bandwidth knobs, the coherence protocol, run limits) share one stored
// mapping. The exclusions are safe by construction: during learning every
// L2 miss routes over the PCIe path and no offloads are in flight, so the
// stacks, their links, and the offload gates are completely idle — they
// cannot affect which instances the analyzer observes or the bit it picks.
// Every other parameter (GPU organization, cache geometry, PCIe model,
// learning-phase tunables, the offload policy's candidate selection) stays,
// erring toward fragmentation — an unnecessary miss re-learns; a wrong hit
// would misplace data.
func learnFamily(cfg sim.Config) string {
	f := cfg
	f.Observer = nil
	d := sim.DefaultConfig()
	f.Offload = d.Offload
	f.BusyThreshold = d.BusyThreshold
	f.ALUGate = d.ALUGate
	f.Coherence = d.Coherence
	f.StackWarpMult = d.StackWarpMult
	f.InternalBWRatio = d.InternalBWRatio
	f.CrossStackBW = d.CrossStackBW
	f.FixedBit = d.FixedBit
	f.MaxCycles = d.MaxCycles
	return f.Canonical()
}

// mappingKey digests one mapping-store identity.
func mappingKey(abbr string, scale float64, structure, family string) string {
	h := sha256.New()
	fmt.Fprintf(h, "workload=%s;scale=%v;structure=%s;family=%s", abbr, scale, structure, family)
	return hex.EncodeToString(h.Sum(nil))
}

// MappingStats summarizes a session's persistent-mapping activity.
type MappingStats struct {
	StoreHits   uint64 // specs that installed a stored mapping
	StoreMisses uint64 // consults that found no usable record
	StoreWrites uint64 // learned mappings persisted
	SavedBytes  uint64 // learning-phase PCIe bytes avoided by installs
}

// MappingStats reports the session's persistent-mapping activity.
func (s *Session) MappingStats() MappingStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ms
}

// count adds n to one of the session's MappingStats fields.
func (s *Session) count(field *uint64, n uint64) {
	s.mu.Lock()
	*field += n
	s.mu.Unlock()
}

// WithStoredMapping consults the persistent mapping registry for a resolved
// spec and, on a hit, returns the spec with the stored mapping folded in as
// a pre-install (RunSpec.MapInstall): the run then starts with the learned
// bit resident — no learning phase, no PCIe detour — charging only the
// one-time copy. Anything that prevents a safe install (store disabled,
// non-transparent mapping mode, no record, stale or corrupt record) returns
// the spec unchanged, degrading to fresh learning. The fold participates in
// the run digest, so stored-mapping runs never alias fresh-learning runs in
// any cache layer.
func (s *Session) WithStoredMapping(spec RunSpec) (RunSpec, error) {
	if s.mappings == nil || spec.MapInstall != nil || spec.Cfg.Mapping != sim.MapTransparent {
		return spec, nil
	}
	in, err := s.instance(spec.Abbr)
	if err != nil {
		return RunSpec{}, err
	}
	key := mappingKey(spec.Abbr, spec.Scale, mapping.StructureID(in.Alloc), learnFamily(spec.Cfg))
	rec, ok, err := s.mappings.get(key)
	if err != nil {
		return RunSpec{}, err
	}
	if !ok {
		s.count(&s.ms.StoreMisses, 1)
		return spec, nil
	}
	s.count(&s.ms.StoreHits, 1)
	s.count(&s.ms.SavedBytes, rec.LearnPCIeBytes)
	spec.MapInstall = &MapInstallSpec{
		Bit:       rec.Bit,
		Ranges:    append([]string(nil), rec.Ranges...),
		SavedPCIe: rec.LearnPCIeBytes,
		Structure: rec.Structure,
	}
	return spec, nil
}

// storeLearnedMapping persists the learned mapping of a freshly simulated,
// verified run. Only genuine learning results are stored: the run must have
// learned its bit this run (not installed or preset), with a valid bit and
// at least one mapped range. Write failures cost future installs, not
// correctness, so they are logged and swallowed like DiskCache put failures.
func (s *Session) storeLearnedMapping(spec RunSpec, res *RunResult) {
	if s.mappings == nil || spec.MapInstall != nil {
		return
	}
	st := &res.Stats
	if st.MappingSource != sim.MappingLearned || !validMapping(st.LearnedBit, st.MappedRanges) {
		return
	}
	in, err := s.instance(spec.Abbr)
	if err != nil {
		return
	}
	structure, family := mapping.StructureID(in.Alloc), learnFamily(spec.Cfg)
	rec := &MappingRecord{
		Workload:       spec.Abbr,
		Scale:          spec.Scale,
		Structure:      structure,
		Family:         family,
		Bit:            st.LearnedBit,
		Ranges:         append([]string(nil), st.MappedRanges...),
		CopiedBytes:    st.CopiedBytes,
		LearnPCIeBytes: st.PCIeBytes,
		LearnInstances: st.LearnInstances,
		LearnCycles:    st.LearnCycles,
	}
	if err := s.mappings.put(mappingKey(spec.Abbr, spec.Scale, structure, family), rec); err != nil {
		s.logf("%v", err)
		return
	}
	s.count(&s.ms.StoreWrites, 1)
}
