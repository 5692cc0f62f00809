package core

import (
	"reflect"
	"testing"

	"repro/internal/sim"
)

// TestMapInstallDigestDistinct: a stored-mapping run is a different
// measurement than the fresh-learning run of the same configuration, and
// installs differing in any parameter are different runs — none may share a
// cache record.
func TestMapInstallDigestDistinct(t *testing.T) {
	base, err := NewRunSpec("SP", 0.3, CfgCtrlTmap)
	if err != nil {
		t.Fatal(err)
	}
	withInstall := func(mi MapInstallSpec) RunSpec {
		s := base
		s.MapInstall = &mi
		return s
	}
	specs := []RunSpec{
		base,
		withInstall(MapInstallSpec{Bit: 9, Ranges: []string{"a"}, SavedPCIe: 100}),
		withInstall(MapInstallSpec{Bit: 10, Ranges: []string{"a"}, SavedPCIe: 100}),
		withInstall(MapInstallSpec{Bit: 9, Ranges: []string{"a", "b"}, SavedPCIe: 100}),
		withInstall(MapInstallSpec{Bit: 9, Ranges: []string{"a"}, SavedPCIe: 101}),
	}
	seen := map[string]int{}
	for i, s := range specs {
		d := s.Digest()
		if prev, dup := seen[d]; dup {
			t.Errorf("digest collision between specs %d and %d", prev, i)
		}
		seen[d] = i
	}
}

// TestLearnFamilySharing: configurations that differ only in post-learning
// parameters (stack capacity, cross-stack bandwidth, coherence, offload
// gates) share one mapping family, while any learning-relevant change
// (learning tunables, cache geometry, PCIe model) splits it.
func TestLearnFamilySharing(t *testing.T) {
	tmap, _ := buildConfig(CfgCtrlTmap)
	fam := learnFamily(tmap)
	for _, name := range []ConfigName{CfgWarp2x, CfgWarp4x, CfgCross100,
		CfgCross0125, CfgInternal1x, CfgNoCoherence, CfgNoCtrlTmap} {
		c, err := buildConfig(name)
		if err != nil {
			t.Fatal(err)
		}
		if learnFamily(c) != fam {
			t.Errorf("%s: should share ctrl-tmap's mapping family (stacks are idle during learning)", name)
		}
	}
	for _, mut := range []struct {
		name string
		mut  func(*sim.Config)
	}{
		{"LearnFrac", func(c *sim.Config) { c.LearnFrac *= 2 }},
		{"LearnMin", func(c *sim.Config) { c.LearnMin++ }},
		{"LearnDeadline", func(c *sim.Config) { c.LearnDeadline++ }},
		{"PCIeBW", func(c *sim.Config) { c.PCIeBW *= 2 }},
		{"L2Bytes", func(c *sim.Config) { c.L2Bytes *= 2 }},
		{"MainSMs", func(c *sim.Config) { c.MainSMs++ }},
		{"Stacks", func(c *sim.Config) { c.Stacks *= 2 }},
	} {
		c := tmap
		mut.mut(&c)
		if learnFamily(c) == fam {
			t.Errorf("changing %s must split the mapping family", mut.name)
		}
	}
}

// TestMappingStoreColdThenWarm is the acceptance test for the persistent
// mapping registry: a cold session learns the mapping (paying the PCIe
// detour) and seeds the store; a warm session over the same cache directory
// installs it before cycle 0 — zero learning-phase PCIe bytes, the learned
// bit and copy charge reproduced exactly, the avoided traffic reported —
// and a second warm session replays the stored-mapping run from the result
// cache byte-for-byte.
func TestMappingStoreColdThenWarm(t *testing.T) {
	dir := t.TempDir()
	const scale = 0.05

	cold := NewSession(Options{Scale: scale, CacheDir: dir, Fingerprint: "build-1"})
	spec, err := cold.Spec("LIB", CfgCtrlTmap)
	if err != nil {
		t.Fatal(err)
	}
	spec, err = cold.WithStoredMapping(spec)
	if err != nil {
		t.Fatal(err)
	}
	if spec.MapInstall != nil {
		t.Fatal("cold store must miss")
	}
	fresh, _, err := cold.Execute(spec)
	if err != nil {
		t.Fatal(err)
	}
	if fresh.Stats.MappingSource != sim.MappingLearned || fresh.Stats.PCIeBytes == 0 {
		t.Fatalf("cold run should learn over PCIe: source=%q pcie=%d",
			fresh.Stats.MappingSource, fresh.Stats.PCIeBytes)
	}
	if ms := cold.MappingStats(); ms.StoreHits != 0 || ms.StoreMisses != 1 || ms.StoreWrites != 1 {
		t.Fatalf("cold mapping stats = %+v, want 1 miss + 1 write", ms)
	}

	warm := NewSession(Options{Scale: scale, CacheDir: dir, Fingerprint: "build-1"})
	wspec, err := warm.Spec("LIB", CfgCtrlTmap)
	if err != nil {
		t.Fatal(err)
	}
	wspec, err = warm.WithStoredMapping(wspec)
	if err != nil {
		t.Fatal(err)
	}
	if wspec.MapInstall == nil {
		t.Fatal("warm store must hit")
	}
	if wspec.Digest() == spec.Digest() {
		t.Fatal("stored-mapping run must not alias the fresh-learning run")
	}
	stored, src, err := warm.Execute(wspec)
	if err != nil {
		t.Fatal(err)
	}
	if src != SourceSimulated {
		t.Fatalf("first stored-mapping run came from %q, want a fresh simulation", src)
	}
	st := &stored.Stats
	if st.MappingSource != sim.MappingStored {
		t.Errorf("MappingSource = %q, want %q", st.MappingSource, sim.MappingStored)
	}
	if st.PCIeBytes != 0 {
		t.Errorf("stored-mapping run paid %d learning-phase PCIe bytes, want 0", st.PCIeBytes)
	}
	if st.LearnedBit != fresh.Stats.LearnedBit {
		t.Errorf("installed bit %d != learned bit %d", st.LearnedBit, fresh.Stats.LearnedBit)
	}
	if st.CopiedBytes != fresh.Stats.CopiedBytes {
		t.Errorf("install copied %d bytes, fresh learning copied %d", st.CopiedBytes, fresh.Stats.CopiedBytes)
	}
	if st.LearnPCIeSaved != fresh.Stats.PCIeBytes {
		t.Errorf("LearnPCIeSaved = %d, want the fresh run's %d PCIe bytes",
			st.LearnPCIeSaved, fresh.Stats.PCIeBytes)
	}
	if ms := warm.MappingStats(); ms.StoreHits != 1 || ms.SavedBytes != fresh.Stats.PCIeBytes {
		t.Errorf("warm mapping stats = %+v", ms)
	}
	// An installed run re-learned nothing, so it must not overwrite the
	// record (StoreWrites stays 0 on the warm session).
	if ms := warm.MappingStats(); ms.StoreWrites != 0 {
		t.Errorf("warm session rewrote the store %d times", ms.StoreWrites)
	}

	// Second warm session: same consult, and the run replays from the
	// persistent result cache with the identical record.
	warm2 := NewSession(Options{Scale: scale, CacheDir: dir, Fingerprint: "build-1"})
	w2spec, err := warm2.Spec("LIB", CfgCtrlTmap)
	if err != nil {
		t.Fatal(err)
	}
	w2spec, err = warm2.WithStoredMapping(w2spec)
	if err != nil {
		t.Fatal(err)
	}
	if w2spec.MapInstall == nil {
		t.Fatal("second warm consult must hit")
	}
	replayed, src2, err := warm2.Execute(w2spec)
	if err != nil {
		t.Fatal(err)
	}
	if src2 != SourceDisk {
		t.Errorf("second stored-mapping run came from %q, want the disk cache", src2)
	}
	if !reflect.DeepEqual(replayed, stored) {
		t.Errorf("replayed stored-mapping result differs from the simulated one")
	}

	// A session with a foreign fingerprint must fall back to fresh learning.
	other := NewSession(Options{Scale: scale, CacheDir: dir, Fingerprint: "build-2"})
	ospec, err := other.Spec("LIB", CfgCtrlTmap)
	if err != nil {
		t.Fatal(err)
	}
	ospec, err = other.WithStoredMapping(ospec)
	if err != nil {
		t.Fatal(err)
	}
	if ospec.MapInstall != nil {
		t.Error("stale-build record must not install")
	}
}

// TestWithStoredMappingGates: the consult is a no-op for sessions without a
// store and for configurations that never learn (non-transparent mapping).
func TestWithStoredMappingGates(t *testing.T) {
	s := NewSession(Options{Scale: 0.05}) // no cache dir: store disabled
	spec, err := s.Spec("LIB", CfgCtrlTmap)
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.WithStoredMapping(spec)
	if err != nil || got.MapInstall != nil {
		t.Errorf("store-less session: MapInstall=%v err=%v", got.MapInstall, err)
	}
	if ms := s.MappingStats(); ms != (MappingStats{}) {
		t.Errorf("store-less session counted mapping traffic: %+v", ms)
	}

	withDir := NewSession(Options{Scale: 0.05, CacheDir: t.TempDir(), Fingerprint: "b"})
	bspec, err := withDir.Spec("LIB", CfgCtrlBmap)
	if err != nil {
		t.Fatal(err)
	}
	got, err = withDir.WithStoredMapping(bspec)
	if err != nil || got.MapInstall != nil {
		t.Errorf("bmap config: MapInstall=%v err=%v", got.MapInstall, err)
	}
	if ms := withDir.MappingStats(); ms != (MappingStats{}) {
		t.Errorf("non-learning config counted mapping traffic: %+v", ms)
	}
}
