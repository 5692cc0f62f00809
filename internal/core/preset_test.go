package core

import (
	"reflect"
	"sync"
	"testing"

	"repro/internal/sim"
)

// TestMapInstallDigestDistinct: ctrl-tmap-preset and ctrl-oracle have
// ctrl-tmap's simulator configuration, yet each installs a mapping before
// cycle 0 instead of learning one, so no two of them share a cache record.
func TestMapInstallDigestDistinct(t *testing.T) {
	learn, err := NewRunSpec("SP", 0.3, CfgCtrlTmap)
	if err != nil {
		t.Fatal(err)
	}
	digests := map[string]ConfigName{learn.Digest(): CfgCtrlTmap}
	for _, name := range []ConfigName{CfgCtrlTmapPreset, CfgCtrlOracle} {
		spec, err := NewRunSpec("SP", 0.3, name)
		if err != nil {
			t.Fatal(err)
		}
		if learn.Cfg.Canonical() != spec.Cfg.Canonical() {
			t.Errorf("%s must simulate ctrl-tmap's configuration", name)
		}
		if prev, dup := digests[spec.Digest()]; dup {
			t.Errorf("%s aliases %s's digest", name, prev)
		}
		digests[spec.Digest()] = name
	}
}

// TestPresetCell: ctrl-tmap-preset runs with the mapping its workload's
// ctrl-tmap run learned, in force from cycle 0 — the same bit and ranges, no
// learning phase and no PCIe detour. A ctrl-tmap run that learned no valid
// mapping presets nothing, so the cell equals ctrl-tmap. Both cells are
// ordinary cache records: a second session over the same directory replays
// them without simulating.
func TestPresetCell(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates LIB and HW under ctrl-tmap and ctrl-tmap-preset")
	}
	dir := t.TempDir()
	cells := []struct {
		abbr  string
		scale float64
	}{{"LIB", 0.05}, {"HW", 0.03}}
	names := []ConfigName{CfgCtrlTmapPreset, CfgCtrlTmap}

	// All four cells at once: a preset cell and its ctrl-tmap cell race for
	// the same ctrl-tmap flight, and each run must still happen once.
	cold := NewSession(Options{CacheDir: dir, Fingerprint: "build-1"})
	stats := make([][]sim.Stats, len(cells))
	var wg sync.WaitGroup
	for i, c := range cells {
		stats[i] = make([]sim.Stats, len(names))
		for j, name := range names {
			wg.Add(1)
			go func() {
				defer wg.Done()
				spec, err := NewRunSpec(c.abbr, c.scale, name)
				if err != nil {
					t.Error(err)
					return
				}
				res, _, err := cold.Execute(spec)
				if err != nil {
					t.Error(err)
					return
				}
				stats[i][j] = res.Stats
			}()
		}
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	lib, libLearned := stats[0][0], stats[0][1]
	if libLearned.MappingSource != sim.MappingLearned || libLearned.PCIeBytes == 0 {
		t.Fatalf("LIB ctrl-tmap should learn over PCIe: source=%q pcie=%d",
			libLearned.MappingSource, libLearned.PCIeBytes)
	}
	if lib.MappingSource != sim.MappingPreset || lib.LearnedBit != libLearned.LearnedBit ||
		!reflect.DeepEqual(lib.MappedRanges, libLearned.MappedRanges) || lib.PCIeBytes != 0 || lib.LearnCycles != 0 {
		t.Errorf("LIB preset: source=%q bit=%d ranges=%v pcie=%d learn cycles=%d, want %q/%d/%v/0/0",
			lib.MappingSource, lib.LearnedBit, lib.MappedRanges, lib.PCIeBytes, lib.LearnCycles,
			sim.MappingPreset, libLearned.LearnedBit, libLearned.MappedRanges)
	}

	hw, hwLearned := stats[1][0], stats[1][1]
	if hwLearned.MappingSource == sim.MappingLearned && len(hwLearned.MappedRanges) > 0 {
		t.Fatalf("HW at 0.03 was expected to learn no mapping, learned bit %d on %v",
			hwLearned.LearnedBit, hwLearned.MappedRanges)
	}
	if !reflect.DeepEqual(hw, hwLearned) {
		t.Errorf("HW learned nothing, so its preset cell must equal ctrl-tmap:\npreset:  %+v\nlearned: %+v", hw, hwLearned)
	}
	if n := cold.CacheStats().Simulated; n != 4 {
		t.Errorf("cold session simulated %d runs, want 4 (each cell once)", n)
	}

	warm := NewSession(Options{CacheDir: dir, Fingerprint: "build-1"})
	for _, c := range cells {
		for _, name := range names {
			spec, _ := NewRunSpec(c.abbr, c.scale, name)
			if _, src, err := warm.Execute(spec); err != nil || src != SourceDisk {
				t.Errorf("%s: warm source %q (%v), want a disk replay", spec.Key(), src, err)
			}
		}
	}
	if n := warm.CacheStats().Simulated; n != 0 {
		t.Errorf("warm session simulated %d runs, want 0", n)
	}
}
