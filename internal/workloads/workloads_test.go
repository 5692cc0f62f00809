package workloads

import (
	"runtime"
	"sync"
	"testing"

	"repro/internal/compiler"
	"repro/internal/exec"
	"repro/internal/mem"
)

const testScale = 0.05

func buildAll(t *testing.T, scale float64) map[string]*Instance {
	t.Helper()
	out := map[string]*Instance{}
	for _, w := range All() {
		inst, err := w.Build(scale)
		if err != nil {
			t.Fatalf("%s: %v", w.Abbr, err)
		}
		out[w.Abbr] = inst
	}
	return out
}

func TestRegistry(t *testing.T) {
	ws := All()
	if len(ws) != 10 {
		t.Fatalf("got %d workloads, want 10 (Table 2)", len(ws))
	}
	want := []string{"BP", "BFS", "KM", "CFD", "HW", "LIB", "RAY", "FWT", "SP", "RD"}
	for i, w := range ws {
		if w.Abbr != want[i] {
			t.Errorf("workload %d = %s, want %s", i, w.Abbr, want[i])
		}
		if w.Name == "" || w.Desc == "" {
			t.Errorf("%s missing name/description", w.Abbr)
		}
	}
	if _, err := ByAbbr("LIB"); err != nil {
		t.Error(err)
	}
	if _, err := ByAbbr("nope"); err == nil {
		t.Error("unknown abbreviation should fail")
	}
}

func TestFunctionalCorrectness(t *testing.T) {
	for abbr, inst := range buildAll(t, testScale) {
		if err := exec.RunFunctionalAll(inst.Mem, inst.Launches); err != nil {
			t.Fatalf("%s: run: %v", abbr, err)
		}
		if inst.Check == nil {
			t.Fatalf("%s: no self-check", abbr)
		}
		if err := inst.Check(inst.Mem); err != nil {
			t.Errorf("self-check failed: %v", err)
		}
	}
}

func TestEveryWorkloadHasOffloadCandidates(t *testing.T) {
	for abbr, inst := range buildAll(t, testScale) {
		total := 0
		loops := 0
		seen := map[string]bool{}
		for _, l := range inst.Launches {
			if seen[l.Kernel.Name] {
				continue
			}
			seen[l.Kernel.Name] = true
			md, err := compiler.Analyze(l.Kernel, compiler.DefaultCostParams())
			if err != nil {
				t.Fatalf("%s/%s: %v", abbr, l.Kernel.Name, err)
			}
			total += len(md.Candidates)
			for _, c := range md.Candidates {
				if c.IsLoop {
					loops++
				}
				t.Logf("%s/%s: %v", abbr, l.Kernel.Name, c)
			}
		}
		if total == 0 {
			t.Errorf("%s: no offload candidates at all", abbr)
		}
	}
}

func TestCloneIsIndependent(t *testing.T) {
	w, err := ByAbbr("SP")
	if err != nil {
		t.Fatal(err)
	}
	inst, err := w.Build(testScale)
	if err != nil {
		t.Fatal(err)
	}
	c1, c2 := inst.Clone(), inst.Clone()
	if err := exec.RunFunctionalAll(c1.Mem, c1.Launches); err != nil {
		t.Fatal(err)
	}
	// c2 must still be pristine: running it fresh must pass its check,
	// and the original alloc table must not carry flags.
	if err := exec.RunFunctionalAll(c2.Mem, c2.Launches); err != nil {
		t.Fatal(err)
	}
	if err := c2.Check(c2.Mem); err != nil {
		t.Error(err)
	}
	for _, r := range inst.Alloc.Ranges {
		if r.CandidateTouched || r.OffloadMapped {
			t.Errorf("original alloc table mutated: %+v", r)
		}
	}
}

// TestConcurrentCloneOfSharedInstance: goroutines clone one built instance
// and run on their clones at once, as the session's scheduler workers do with
// a pristine instance. Every run ends with the same image, and the pristine
// image still equals a second build. Under the race detector (CI "Race" step)
// this is also what holds every Build to returning its image sealed: a Clone
// that had to seal the receiver would write it under the other clones' reads.
func TestConcurrentCloneOfSharedInstance(t *testing.T) {
	const runners = 4
	for _, w := range All() {
		inst, err := w.Build(0.03)
		if err != nil {
			t.Fatalf("%s: %v", w.Abbr, err)
		}
		finals := make([]*mem.Flat, runners)
		var wg sync.WaitGroup
		for i := range finals {
			wg.Add(1)
			go func() {
				defer wg.Done()
				c := inst.Clone()
				if err := exec.RunFunctionalAll(c.Mem, c.Launches); err != nil {
					t.Errorf("%s: runner %d: %v", w.Abbr, i, err)
					return
				}
				finals[i] = c.Mem
			}()
		}
		wg.Wait()
		if t.Failed() {
			return
		}
		for i := 1; i < runners; i++ {
			if ok, addr := mem.Equal(finals[0], finals[i]); !ok {
				t.Errorf("%s: runners 0 and %d end with different images at %#x", w.Abbr, i, addr)
			}
		}
		if err := inst.Check(finals[0]); err != nil {
			t.Errorf("%s: %v", w.Abbr, err)
		}
		fresh, err := w.Build(0.03)
		if err != nil {
			t.Fatalf("%s: %v", w.Abbr, err)
		}
		if ok, addr := mem.Equal(inst.Mem, fresh.Mem); !ok {
			t.Errorf("%s: the pristine image changed at %#x under its clones' runs", w.Abbr, addr)
		}
		if ok, _ := mem.Equal(inst.Mem, finals[0]); ok {
			t.Errorf("%s: the run left the image as it was; the test shows nothing", w.Abbr)
		}
	}
}

// TestCloneAllocatesNoPages: cloning a built instance allocates a page table
// and an allocation table, not the image — under a twentieth of the bytes the
// driver handed out for SP, which a deep copy allocates in full.
func TestCloneAllocatesNoPages(t *testing.T) {
	w, err := ByAbbr("SP")
	if err != nil {
		t.Fatal(err)
	}
	inst, err := w.Build(testScale)
	if err != nil {
		t.Fatal(err)
	}
	var image uint64
	for _, r := range inst.Alloc.Ranges {
		image += r.Size
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	c := inst.Clone()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(c)
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("Clone of a %d-byte image allocated %d bytes", image, got)
	if got*20 >= image {
		t.Errorf("Clone allocated %d bytes for a %d-byte image, want under 5%%", got, image)
	}
}

func TestScaleControlsSize(t *testing.T) {
	w, _ := ByAbbr("SP")
	small, err := w.Build(0.02)
	if err != nil {
		t.Fatal(err)
	}
	big, err := w.Build(0.2)
	if err != nil {
		t.Fatal(err)
	}
	if small.Launches[0].Grid >= big.Launches[0].Grid {
		t.Errorf("scale had no effect: %d vs %d CTAs", small.Launches[0].Grid, big.Launches[0].Grid)
	}
}

func TestDeterministicBuilds(t *testing.T) {
	w, _ := ByAbbr("BFS")
	a, err := w.Build(testScale)
	if err != nil {
		t.Fatal(err)
	}
	b, err := w.Build(testScale)
	if err != nil {
		t.Fatal(err)
	}
	sa, sb := a.Mem.Snapshot(), b.Mem.Snapshot()
	if len(sa) != len(sb) {
		t.Fatalf("nondeterministic build: %d vs %d words", len(sa), len(sb))
	}
	for addr, v := range sa {
		if sb[addr] != v {
			t.Fatalf("nondeterministic at %#x", addr)
		}
	}
}
