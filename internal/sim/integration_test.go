package sim

import (
	"fmt"
	"testing"

	"repro/internal/exec"
	"repro/internal/mem"
	"repro/internal/workloads"
)

// TestTimingMatchesFunctionalAllWorkloads is the system's central
// invariant: for every workload and every offloading/mapping policy, the
// timing simulation must end with exactly the functional interpreter's
// memory image and pass the workload's numerical self-check. Any bug in
// offload live-in/live-out transfer, region reconvergence, coherence
// sequencing, or warp scheduling shows up here.
func TestTimingMatchesFunctionalAllWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-system simulations")
	}
	configs := map[string]func() Config{
		"baseline": BaselineConfig,
		"ctrl-bmap": func() Config {
			c := DefaultConfig()
			c.Mapping = MapBaseline
			return c
		},
		"ctrl-tmap": DefaultConfig,
		"noctrl-tmap": func() Config {
			c := DefaultConfig()
			c.Offload = OffloadUncontrolled
			return c
		},
		"ideal": func() Config {
			c := DefaultConfig()
			c.Policy = "ideal"
			c.Mapping = MapBaseline
			return c
		},
	}
	for _, w := range workloads.All() {
		inst, err := w.Build(0.04)
		if err != nil {
			t.Fatalf("%s: %v", w.Abbr, err)
		}
		ref := inst.Clone()
		if err := exec.RunFunctionalAll(ref.Mem, ref.Launches); err != nil {
			t.Fatalf("%s: reference: %v", w.Abbr, err)
		}
		for name, mk := range configs {
			t.Run(fmt.Sprintf("%s/%s", w.Abbr, name), func(t *testing.T) {
				c := inst.Clone()
				cfg := mk()
				cfg.MaxCycles = 100_000_000
				sys := New(cfg, c.Mem, c.Alloc)
				if err := sys.Run(c.Launches); err != nil {
					t.Fatal(err)
				}
				if ok, addr := mem.Equal(ref.Mem, c.Mem); !ok {
					t.Fatalf("memory diverged at %#x", addr)
				}
				if err := inst.Check(c.Mem); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// TestOffloadTransfersOnlyLiveRegisters verifies the offload machinery
// really ships just the live-in set: the stack-side region warp starts with
// zeroed non-live registers, so a liveness bug would corrupt results (and
// be caught by the memory-equality test); here we additionally check that
// offloads actually happened in that configuration.
func TestOffloadTransfersOnlyLiveRegisters(t *testing.T) {
	w, err := workloads.ByAbbr("LIB")
	if err != nil {
		t.Fatal(err)
	}
	inst, err := w.Build(0.04)
	if err != nil {
		t.Fatal(err)
	}
	c := inst.Clone()
	cfg := DefaultConfig()
	cfg.Mapping = MapBaseline
	sys := New(cfg, c.Mem, c.Alloc)
	if err := sys.Run(c.Launches); err != nil {
		t.Fatal(err)
	}
	if sys.Stats().OffloadsSent == 0 {
		t.Fatal("LIB must offload its Fig. 4 loops")
	}
	if err := inst.Check(c.Mem); err != nil {
		t.Fatal(err)
	}
}

// TestCoherenceDirtyLines: offloaded stores must be reported back and
// invalidated at the GPU when coherence is on.
func TestCoherenceDirtyLines(t *testing.T) {
	w, _ := workloads.ByAbbr("LIB")
	inst, err := w.Build(0.04)
	if err != nil {
		t.Fatal(err)
	}
	c := inst.Clone()
	cfg := DefaultConfig()
	cfg.Mapping = MapBaseline
	sys := New(cfg, c.Mem, c.Alloc)
	if err := sys.Run(c.Launches); err != nil {
		t.Fatal(err)
	}
	if sys.Stats().CoherenceInvalidates == 0 {
		t.Error("offloaded stores should produce coherence invalidations")
	}

	// With coherence off, no invalidations happen (idealized §4.4.2 study).
	c2 := inst.Clone()
	cfg.Coherence = false
	sys2 := New(cfg, c2.Mem, c2.Alloc)
	if err := sys2.Run(c2.Launches); err != nil {
		t.Fatal(err)
	}
	if sys2.Stats().CoherenceInvalidates != 0 {
		t.Error("coherence-off run must not invalidate")
	}
	if ok, addr := mem.Equal(c.Mem, c2.Mem); !ok {
		t.Errorf("coherence flag changed results at %#x (must be timing-only)", addr)
	}
}
