package sim

import (
	"bytes"
	_ "embed"
	"fmt"
	"os"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/exec"
	"repro/internal/mapping"
	"repro/internal/mem"
	"repro/internal/workloads"
)

const profileGoldenPath = "testdata/profile_s003.golden"

//go:embed testdata/profile_s003.golden
var profileGolden []byte

// profileSummary prints everything a Profile answers for one workload, with
// every float exact: a pin for the profile pass that table precision would
// round away.
func profileSummary(abbr string, p *Profile) string {
	g := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	var b strings.Builder
	fmt.Fprintf(&b, "== %s\n", abbr)
	fmt.Fprintf(&b, "instances %d\ncandidates %d\n", p.Map.Instances(), p.CandidateCount)
	fmt.Fprintf(&b, "touched %s\n", strings.Join(p.Touched, " "))
	fmt.Fprintf(&b, "baseline %s\n", g(p.BaselineCoLocation()))
	for bit := mapping.MinBit; bit <= mapping.MaxBit; bit++ {
		fmt.Fprintf(&b, "bit %d %s\n", bit, g(p.Map.CoLocation(bit)))
	}
	for _, frac := range []float64{0.001, 0.005, 0.01, 1} {
		bit, co := p.BestBitFromFraction(frac)
		fmt.Fprintf(&b, "best %s %d %s\n", g(frac), bit, g(co))
	}
	for i, n := range p.OffsetBuckets() {
		fmt.Fprintf(&b, "bucket %q %d\n", mapping.OffsetBucket(i).String(), n)
	}
	fmt.Fprintf(&b, "fixed %s\n", g(p.FixedOffsetCandidateFraction()))
	return b.String()
}

// TestProfileMatchesGolden pins the profile pass of every workload at scale
// 0.03 exactly: instance and candidate counts, the ranges it flags, every
// co-location figure, the learned bits and the Fig. 5 buckets. A rewrite of
// RunProfile must reproduce the file byte for byte.
//
// Regenerate (deliberate changes to what the pass observes only) with:
//
//	GOLDEN_UPDATE=1 go test ./internal/sim -run TestProfileMatchesGolden
func TestProfileMatchesGolden(t *testing.T) {
	var got bytes.Buffer
	for _, w := range workloads.All() {
		inst, err := w.Build(0.03)
		if err != nil {
			t.Fatalf("%s: %v", w.Abbr, err)
		}
		run := inst.Clone()
		p, err := RunProfile(run.Mem, run.Alloc, run.Launches)
		if err != nil {
			t.Fatalf("%s: %v", w.Abbr, err)
		}
		var flagged []string
		for _, r := range run.Alloc.Ranges {
			if r.CandidateTouched {
				flagged = append(flagged, r.Name)
			}
		}
		if !slices.Equal(p.Touched, flagged) {
			t.Errorf("%s: Touched = %v, the allocation table flags %v", w.Abbr, p.Touched, flagged)
		}
		got.WriteString(profileSummary(w.Abbr, p))
	}
	if os.Getenv("GOLDEN_UPDATE") != "" {
		if err := os.WriteFile(profileGoldenPath, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", profileGoldenPath)
		return
	}
	if !bytes.Equal(got.Bytes(), profileGolden) {
		gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(profileGolden), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("profile diverged from %s at line %d:\n  golden: %s\n  got:    %s", profileGoldenPath, i+1, wl[i], gl[i])
			}
		}
		t.Fatalf("profile has %d lines, %s has %d", len(gl), profileGoldenPath, len(wl))
	}
}

// TestEmptyProfileReportsZeroCoLocation: a profile that saw no candidate
// instance reports 0 for every co-location it answers — the baseline, every
// bit, and the learned and oracle picks — never 0/0.
func TestEmptyProfileReportsZeroCoLocation(t *testing.T) {
	p, err := RunProfile(mem.NewFlat(), &mem.AllocTable{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if co := p.BaselineCoLocation(); co != 0 {
		t.Errorf("baseline co-location %v, want 0", co)
	}
	for bit := mapping.MinBit; bit <= mapping.MaxBit; bit++ {
		if co := p.Map.CoLocation(bit); co != 0 {
			t.Errorf("bit %d co-location %v, want 0", bit, co)
		}
	}
	for _, frac := range []float64{0.001, 0.01, 1} {
		if bit, co := p.BestBitFromFraction(frac); co != 0 {
			t.Errorf("best bit at %v: bit %d co-location %v, want 0", frac, bit, co)
		}
	}
}

// TestProfileAllocsPerInstance: the profile pass allocates per launch and per
// static candidate, not per step, line or instance. Between scales 0.03 and
// 0.1 the instance count grows several-fold while the kernels, launches and
// candidates stay the same, so the allocations the larger run adds, divided
// by the instances it adds, must stay at or under one.
func TestProfileAllocsPerInstance(t *testing.T) {
	if testing.Short() {
		t.Skip("profiles two scales")
	}
	for _, abbr := range []string{"BFS", "FWT"} {
		w, err := workloads.ByAbbr(abbr)
		if err != nil {
			t.Fatal(err)
		}
		var allocs, instances [2]float64
		for i, scale := range []float64{0.03, 0.1} {
			inst, err := w.Build(scale)
			if err != nil {
				t.Fatal(err)
			}
			const runs = 2
			clones := make([]*workloads.Instance, runs+1) // AllocsPerRun adds a warm-up run
			for j := range clones {
				clones[j] = inst.Clone()
			}
			n := 0
			allocs[i] = testing.AllocsPerRun(runs, func() {
				c := clones[n]
				n++
				p, err := RunProfile(c.Mem, c.Alloc, c.Launches)
				if err != nil {
					t.Fatal(err)
				}
				instances[i] = float64(p.Map.Instances())
			})
		}
		if instances[1] <= instances[0] {
			t.Fatalf("%s: %v instances at 0.1, %v at 0.03", abbr, instances[1], instances[0])
		}
		per := (allocs[1] - allocs[0]) / (instances[1] - instances[0])
		t.Logf("%s: %v allocs / %v instances at 0.03, %v / %v at 0.1: %.2f per added instance",
			abbr, allocs[0], instances[0], allocs[1], instances[1], per)
		if per > 1 {
			t.Errorf("%s: %.2f allocations per added instance, want <= 1", abbr, per)
		}
	}
}

// BenchmarkProfilePass is the profile pass beside the plain functional pass
// it wraps (FWT at scale 0.03, each iteration on a fresh clone): the ratio
// of the two is the price of observing candidate instances.
func BenchmarkProfilePass(b *testing.B) {
	w, err := workloads.ByAbbr("FWT")
	if err != nil {
		b.Fatal(err)
	}
	inst, err := w.Build(0.03)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("functional", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c := inst.Clone()
			if err := exec.RunFunctionalAll(c.Mem, c.Launches); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("profile", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c := inst.Clone()
			if _, err := RunProfile(c.Mem, c.Alloc, c.Launches); err != nil {
				b.Fatal(err)
			}
		}
	})
}
