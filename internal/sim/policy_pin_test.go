package sim

import (
	"bytes"
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"testing"

	"repro/internal/workloads"
)

const fig9GoldenPath = "testdata/fig9_golden.json"

// The golden is embedded rather than read at run time: a fixture that goes
// missing (an over-broad .gitignore pattern once swallowed it) then breaks
// the test build instead of surfacing only in the non-short run.
//
//go:embed testdata/fig9_golden.json
var fig9Golden []byte

// pinConfig is one named configuration of a pin test's matrix.
type pinConfig struct {
	name string
	mk   func() Config
}

// fig9PinConfigs is the Fig. 9 configuration matrix, which
// TestEventLoopMatchesPerCycleStats extends (eventLoopPinConfigs): baseline
// plus the four offload-control × mapping combinations.
func fig9PinConfigs() []pinConfig {
	return []pinConfig{
		{"baseline", BaselineConfig},
		{"noctrl-bmap", func() Config {
			c := DefaultConfig()
			c.Policy = "noctrl"
			c.Mapping = MapBaseline
			return c
		}},
		{"noctrl-tmap", func() Config {
			c := DefaultConfig()
			c.Policy = "noctrl"
			return c
		}},
		{"ctrl-bmap", func() Config {
			c := DefaultConfig()
			c.Mapping = MapBaseline
			return c
		}},
		{"ctrl-tmap", DefaultConfig},
	}
}

// TestTomPolicyPinsFig9Golden is the refactor-safety bar for the offload
// policy extraction: the default (`tom`) policy must reproduce the Fig. 9
// Stats matrix byte-identically to the pre-refactor simulator. The golden
// file pins every Stats field that existed when it was generated; fields
// added later (new gate reasons, etc.) are permitted to appear with zero
// values but every pinned field must match exactly.
//
// Regenerate with:
//
//	GOLDEN_UPDATE=1 go test ./internal/sim -run TestTomPolicyPinsFig9Golden
//
// Only regenerate when a deliberate behavioral change is being made; a
// refactor must never need it.
func TestTomPolicyPinsFig9Golden(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-system simulations")
	}
	update := os.Getenv("GOLDEN_UPDATE") != ""

	fresh := map[string]json.RawMessage{}
	for _, w := range workloads.All() {
		inst, err := w.Build(0.03)
		if err != nil {
			t.Fatalf("%s: %v", w.Abbr, err)
		}
		for _, c := range fig9PinConfigs() {
			run := inst.Clone()
			cfg := c.mk()
			cfg.MaxCycles = 100_000_000
			sys := New(cfg, run.Mem, run.Alloc)
			if err := sys.Run(run.Launches); err != nil {
				t.Fatalf("%s/%s: %v", w.Abbr, c.name, err)
			}
			raw, err := json.Marshal(sys.Stats())
			if err != nil {
				t.Fatalf("%s/%s: marshal: %v", w.Abbr, c.name, err)
			}
			fresh[fmt.Sprintf("%s/%s", w.Abbr, c.name)] = raw
		}
	}

	if update {
		writeGolden(t, fig9GoldenPath, fresh)
		return
	}

	var golden map[string]json.RawMessage
	if err := json.Unmarshal(fig9Golden, &golden); err != nil {
		t.Fatalf("decode golden: %v", err)
	}
	if len(golden) != len(fresh) {
		t.Errorf("golden pins %d cells, the Fig. 9 matrix has %d", len(golden), len(fresh))
	}
	for cell, want := range golden {
		got, ok := fresh[cell]
		if !ok {
			t.Errorf("%s: missing from fresh run (workload or config removed?)", cell)
			continue
		}
		var wantFields, gotFields map[string]json.RawMessage
		if err := json.Unmarshal(want, &wantFields); err != nil {
			t.Fatalf("%s: decode golden cell: %v", cell, err)
		}
		if err := json.Unmarshal(got, &gotFields); err != nil {
			t.Fatalf("%s: decode fresh cell: %v", cell, err)
		}
		for field, w := range wantFields {
			g, ok := gotFields[field]
			if !ok && string(w) == "0" {
				// A counter the golden holds at zero and Stats no longer has
				// went with the code that wrote it (the golden predates the
				// removal of the gate-feedback loop's two counters); a
				// vanished field that pinned a value is still an error.
				continue
			}
			if !ok {
				t.Errorf("%s: field %s vanished from Stats", cell, field)
				continue
			}
			if !bytes.Equal(compactJSON(t, w), compactJSON(t, g)) {
				t.Errorf("%s: %s diverged from golden:\n  golden: %s\n  got:    %s",
					cell, field, w, g)
			}
		}
	}
}

// writeGolden replaces the golden at path with cells as JSON with sorted
// keys and a two-space indent (the GOLDEN_UPDATE=1 path of the pin tests).
func writeGolden[V any](t *testing.T, path string, cells map[string]V) {
	t.Helper()
	out, err := json.MarshalIndent(cells, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(out, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s (%d cells)", path, len(cells))
}

func compactJSON(t *testing.T, raw json.RawMessage) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.Compact(&buf, raw); err != nil {
		t.Fatalf("compact: %v", err)
	}
	return buf.Bytes()
}
