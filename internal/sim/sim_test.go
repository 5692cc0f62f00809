package sim

import (
	"testing"

	"repro/internal/exec"
	"repro/internal/isa"
	"repro/internal/mem"
)

// streamKernel: each thread grid-strides over `per` elements of a and b,
// writing a[i]*2+b[i] into out — a coalesced loop candidate with runtime
// trip count.
func streamKernel(t testing.TB) *isa.Kernel {
	t.Helper()
	b := isa.NewBuilder("stream", 5) // r0=a, r1=b, r2=out, r3=per, r4=T
	b.Mov(5, isa.Sp(isa.SpGtid))
	b.MovI(6, 0)       // k
	b.Mov(7, isa.R(5)) // idx
	b.Label("top")
	b.Shl(8, isa.R(7), isa.Imm(2))
	b.Add(9, isa.R(0), isa.R(8))
	b.Ld(10, isa.R(9), 0)
	b.Add(11, isa.R(1), isa.R(8))
	b.Ld(12, isa.R(11), 0)
	b.Add(10, isa.R(10), isa.R(10))
	b.Add(10, isa.R(10), isa.R(12))
	b.Add(13, isa.R(2), isa.R(8))
	b.St(isa.R(13), 0, isa.R(10))
	b.Add(7, isa.R(7), isa.R(4)) // idx += T
	b.Add(6, isa.R(6), isa.Imm(1))
	b.Setp(14, isa.CmpLT, isa.R(6), isa.R(3))
	b.BraIf(isa.R(14), "top")
	b.Exit()
	return b.MustBuild()
}

type workloadEnv struct {
	mem      *mem.Flat
	alloc    *mem.AllocTable
	launches []exec.Launch
}

func streamEnv(t testing.TB, ctas, per int) *workloadEnv {
	t.Helper()
	k := streamKernel(t)
	env := &workloadEnv{mem: mem.NewFlat(), alloc: mem.NewAllocTable()}
	threads := ctas * 128
	n := threads * per
	a := env.alloc.Alloc("a", uint64(4*n))
	bb := env.alloc.Alloc("b", uint64(4*n))
	out := env.alloc.Alloc("out", uint64(4*n))
	for i := 0; i < n; i++ {
		env.mem.Store4(a+uint64(4*i), uint32(i%977))
		env.mem.Store4(bb+uint64(4*i), uint32(i%131))
	}
	env.launches = []exec.Launch{{
		Kernel: k, Grid: ctas, Block: 128,
		Params: []uint64{a, bb, out, uint64(per), uint64(threads)},
	}}
	return env
}

func refMem(t testing.TB, env *workloadEnv) *mem.Flat {
	t.Helper()
	m := env.mem.Clone()
	if err := exec.RunFunctionalAll(m, env.launches); err != nil {
		t.Fatal(err)
	}
	return m
}

// newSim builds a system over a fresh copy of env's memory and allocation
// table, with a MaxCycles guard unless cfg sets one.
func newSim(cfg Config, env *workloadEnv) *System {
	if cfg.MaxCycles == 0 {
		cfg.MaxCycles = 50_000_000
	}
	return New(cfg, env.mem.Clone(), cloneEnvAlloc(env))
}

func runSim(t testing.TB, cfg Config, env *workloadEnv) *System {
	t.Helper()
	sys := newSim(cfg, env)
	if err := sys.Run(env.launches); err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestBaselineMatchesFunctionalReference(t *testing.T) {
	env := streamEnv(t, 16, 16)
	want := refMem(t, env)
	sys := runSim(t, BaselineConfig(), env)
	if ok, addr := mem.Equal(want, sys.mem); !ok {
		t.Fatalf("baseline timing run diverged from functional reference at %#x", addr)
	}
	st := sys.Stats()
	if st.Cycles == 0 || st.ThreadInstrs == 0 {
		t.Fatal("no work simulated")
	}
	if st.OffloadsSent != 0 {
		t.Errorf("baseline must not offload, sent %d", st.OffloadsSent)
	}
	if st.CandidateInstances == 0 {
		t.Error("candidate instances should still be counted")
	}
	t.Logf("baseline: cycles=%d IPC=%.2f L1hit=%.2f traffic=%d",
		st.Cycles, st.IPC(),
		float64(st.L1Hits)/float64(st.L1Hits+st.L1Misses), st.OffChipBytes())
}

func TestControlledOffloadMatchesReferenceAndOffloads(t *testing.T) {
	env := streamEnv(t, 16, 16)
	want := refMem(t, env)
	cfg := DefaultConfig()
	cfg.Mapping = MapBaseline // isolate offloading from learning here
	sys := runSim(t, cfg, env)
	if ok, addr := mem.Equal(want, sys.mem); !ok {
		t.Fatalf("NDP timing run diverged from functional reference at %#x", addr)
	}
	st := sys.Stats()
	if st.OffloadsSent == 0 {
		t.Fatal("controlled NDP run never offloaded")
	}
	if st.StackThreadInstrs == 0 {
		t.Fatal("no instructions executed on stack SMs")
	}
	t.Logf("ndp-ctrl: cycles=%d offloads=%d stackFrac=%.2f traffic=%d",
		st.Cycles, st.OffloadsSent, st.OffloadedInstrFraction(), st.OffChipBytes())
}

func TestUncontrolledOffloadCompletes(t *testing.T) {
	env := streamEnv(t, 8, 16)
	want := refMem(t, env)
	cfg := DefaultConfig()
	cfg.Offload = OffloadUncontrolled
	cfg.Mapping = MapBaseline
	sys := runSim(t, cfg, env)
	if ok, addr := mem.Equal(want, sys.mem); !ok {
		t.Fatalf("uncontrolled run diverged at %#x", addr)
	}
	if sys.Stats().OffloadsSent == 0 {
		t.Fatal("uncontrolled run should offload")
	}
}

func TestIdealOffloadFasterThanBaseline(t *testing.T) {
	if testing.Short() {
		t.Skip("large launch")
	}
	// Needs a launch big enough that the baseline is bandwidth-bound;
	// tiny grids are latency-bound and offloading merely serializes them
	// onto the four stack SMs.
	env := streamEnv(t, 192, 64)
	base := runSim(t, BaselineConfig(), env)
	cfg := DefaultConfig()
	cfg.Policy = "ideal"
	cfg.Mapping = MapBaseline
	ideal := runSim(t, cfg, env)
	want := refMem(t, env)
	if ok, addr := mem.Equal(want, ideal.mem); !ok {
		t.Fatalf("ideal run diverged at %#x", addr)
	}
	bIPC, iIPC := base.Stats().IPC(), ideal.Stats().IPC()
	t.Logf("baseline IPC=%.2f ideal IPC=%.2f speedup=%.2f", bIPC, iIPC, iIPC/bIPC)
	if iIPC <= bIPC {
		t.Errorf("ideal NDP (%.2f) should beat baseline (%.2f) on this memory-bound kernel", iIPC, bIPC)
	}
}

func TestTransparentMappingLearns(t *testing.T) {
	env := streamEnv(t, 16, 16)
	want := refMem(t, env)
	sys := runSim(t, DefaultConfig(), env) // tmap + ctrl
	if ok, addr := mem.Equal(want, sys.mem); !ok {
		t.Fatalf("tmap run diverged at %#x", addr)
	}
	st := sys.Stats()
	if st.LearnInstances == 0 {
		t.Fatal("learning phase observed no instances")
	}
	if st.CopiedBytes == 0 {
		t.Fatal("no ranges were candidate-touched")
	}
	if st.PCIeBytes == 0 {
		t.Fatal("learning phase should generate PCI-E traffic")
	}
	t.Logf("tmap: learnedBit=%d instances=%d copied=%d learnCycles=%d",
		st.LearnedBit, st.LearnInstances, st.CopiedBytes, st.LearnCycles)
}

func TestProfilePass(t *testing.T) {
	env := streamEnv(t, 8, 16)
	p, err := RunProfile(env.mem, env.alloc, env.launches)
	if err != nil {
		t.Fatal(err)
	}
	if p.Instances == 0 {
		t.Fatal("profile saw no candidate instances")
	}
	// The stream kernel accesses three arrays with the same index:
	// perfectly fixed offsets.
	if f := p.FixedOffsetCandidateFraction(); f < 0.99 {
		t.Errorf("fixed-offset candidate fraction = %v, want ~1", f)
	}
	oBit, oCo := p.OracleBit()
	if oCo <= p.BaselineCoLocation() {
		t.Errorf("oracle bit %d co-location %.2f should beat baseline %.2f",
			oBit, oCo, p.BaselineCoLocation())
	}
	// Learning from 0.1% must be within a few points of the oracle on
	// this regular workload.
	_, lCo := p.BestBitFromFraction(0.001)
	if oCo-lCo > 0.1 {
		t.Errorf("0.1%% learned co-location %.2f far from oracle %.2f", lCo, oCo)
	}
	// Candidate-touched flags must be set on all three arrays.
	for _, name := range []string{"a", "b", "out"} {
		r, err := env.alloc.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		if !r.CandidateTouched {
			t.Errorf("range %q not flagged by profile", name)
		}
	}
}
