package exec

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/cfgx"
	"repro/internal/isa"
	"repro/internal/mem"
)

// randomStructuredKernel builds a random but structured kernel: straight-
// line ALU/memory code with guarded forward branches and one optional
// counted loop — always terminating, always valid.
func randomStructuredKernel(r *rand.Rand) *isa.Kernel {
	b := isa.NewBuilder("fuzz", 2) // r0 = data base, r1 = n
	randOpd := func(maxReg int) isa.Operand {
		if r.Intn(4) == 0 {
			return isa.Imm(int64(r.Intn(64)))
		}
		return isa.R(isa.Reg(2 + r.Intn(maxReg)))
	}
	// Prologue: derive an in-bounds element address from gtid.
	b.Mov(2, isa.Sp(isa.SpGtid))
	b.Rem(2, isa.R(2), isa.R(1))
	b.Shl(3, isa.R(2), isa.Imm(2))
	b.Add(3, isa.R(0), isa.R(3)) // r3 = &data[gtid % n]
	b.Mov(4, isa.R(3))
	nregs := 6 + r.Intn(6)
	for i := 0; i < 12+r.Intn(16); i++ {
		dst := isa.Reg(5 + r.Intn(nregs-5))
		switch r.Intn(8) {
		case 0:
			b.Ld(dst, isa.R(3), 0)
		case 1:
			b.St(isa.R(3), 0, randOpd(nregs))
		case 2:
			// Guarded forward skip.
			pred := isa.Reg(5 + r.Intn(nregs-5))
			b.Setp(pred, isa.CmpLT, randOpd(nregs), randOpd(nregs))
			label := labelName(i)
			b.BraIf(isa.R(pred), label)
			b.Add(dst, randOpd(nregs), randOpd(nregs))
			b.Label(label)
		case 3:
			b.Xor(dst, randOpd(nregs), randOpd(nregs))
		case 4:
			b.FAdd(dst, randOpd(nregs), randOpd(nregs))
		default:
			b.Add(dst, randOpd(nregs), randOpd(nregs))
		}
	}
	// Optional small counted loop accumulating loads.
	if r.Intn(2) == 0 {
		b.MovI(5, 0)
		b.Label("loop")
		b.Ld(6, isa.R(4), 0)
		b.Add(7, isa.R(7), isa.R(6))
		b.Add(5, isa.R(5), isa.Imm(1))
		b.Setp(8, isa.CmpLT, isa.R(5), isa.Imm(int64(1+r.Intn(7))))
		b.BraIf(isa.R(8), "loop")
		b.St(isa.R(4), 0, isa.R(7))
	}
	b.Exit()
	return b.MustBuild()
}

func labelName(i int) string { return "skip" + string(rune('a'+i%26)) }

// TestRandomKernelsDeterministic: the interpreter must be a pure function
// of (kernel, initial memory): two runs give identical final memory.
func TestRandomKernelsDeterministic(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	for trial := 0; trial < 60; trial++ {
		k := randomStructuredKernel(r)
		if err := k.Validate(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		mk := func() *mem.Flat {
			m := mem.NewFlat()
			for i := uint64(0); i < 256; i++ {
				m.Store4(0x1000_0000+4*i, uint32(i*2654435761))
			}
			return m
		}
		launch := Launch{Kernel: k, Grid: 2, Block: 64, Params: []uint64{0x1000_0000, 256}}
		m1, m2 := mk(), mk()
		if err := RunFunctional(m1, launch); err != nil {
			t.Fatalf("trial %d: %v\n%s", trial, err, isa.Disassemble(k))
		}
		if err := RunFunctional(m2, launch); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if ok, addr := mem.Equal(m1, m2); !ok {
			t.Fatalf("trial %d: nondeterministic at %#x\n%s", trial, addr, isa.Disassemble(k))
		}
	}
}

// TestActiveMaskNeverGrows: a warp's active mask is always a subset of the
// lanes it started with.
func TestActiveMaskNeverGrows(t *testing.T) {
	r := rand.New(rand.NewSource(123))
	for trial := 0; trial < 40; trial++ {
		k := randomStructuredKernel(r)
		info, err := cfgx.Analyze(k)
		if err != nil {
			t.Fatal(err)
		}
		g := NewGlobal(mem.NewFlat())
		w := NewWarp(k, info, WarpInfo{NTid: 48, NCtaid: 1}, nil, []uint64{0x2000_0000, 64})
		initial := w.ActiveMask()
		for steps := 0; !w.Done() && steps < 100000; steps++ {
			if am := w.ActiveMask(); am&^initial != 0 {
				t.Fatalf("trial %d: mask %#x grew beyond initial %#x", trial, am, initial)
			}
			w.Step(g)
		}
		if !w.Done() {
			t.Fatalf("trial %d: warp did not terminate", trial)
		}
	}
}

// TestStepCountsMatchActiveLanes: ActiveLanes reported by Step must equal
// the popcount of the mask that executed.
func TestStepCountsMatchActiveLanes(t *testing.T) {
	k := randomStructuredKernel(rand.New(rand.NewSource(7)))
	info, err := cfgx.Analyze(k)
	if err != nil {
		t.Fatal(err)
	}
	g := NewGlobal(mem.NewFlat())
	w := NewWarp(k, info, WarpInfo{NTid: 32, NCtaid: 1}, nil, []uint64{0x3000_0000, 64})
	for !w.Done() {
		before := w.ActiveMask()
		res := w.Step(g)
		if res.Kind == StepNone {
			break
		}
		pop := 0
		for m := before; m != 0; m &= m - 1 {
			pop++
		}
		if res.ActiveLanes != pop {
			t.Fatalf("ActiveLanes=%d, mask popcount=%d at pc %d", res.ActiveLanes, pop, res.PC)
		}
	}
}

// dirtyWarp returns a warp in the worst state a timing model can hand back
// for recycling: every register of the largest register file non-zero, a
// deep SIMT stack, and stale identity fields.
func dirtyWarp() *Warp {
	w := &Warp{
		WInfo:  WarpInfo{CtaID: 77, WarpInCTA: 3, NTid: 999, NCtaid: 999},
		Shared: make([]uint32, 8),
		Regs:   make([][isa.WarpSize]uint64, isa.MaxRegs),
		alive:  0xdeadbeef,
	}
	for r := range w.Regs {
		for lane := range w.Regs[r] {
			w.Regs[r][lane] = 0xbad0_0000_0000_0000 | uint64(r)<<8 | uint64(lane)
		}
	}
	for i := 0; i < 12; i++ {
		w.stack = append(w.stack, simtEntry{pc: 100 + i, rpc: 200 + i, mask: 0xffff_ffff})
	}
	return w
}

// stepLockstep runs a fresh and a recycled warp side by side over their own
// copies of one memory image: every step's result, every register, every
// line and lane address and the final memory must agree bit for bit.
func stepLockstep(t *testing.T, what string, fresh, recycled *Warp, mFresh, mRecycled *mem.Flat) {
	t.Helper()
	lockstep(t, what, fresh, recycled, (*Warp).Step, (*Warp).Step, NewGlobal(mFresh), NewGlobal(mRecycled))
}

// TestRecycledWarpStepsLikeFresh: Reset and ResetRegion over a dirtied warp
// give exactly the warp NewWarp and NewRegionWarp build, over the random
// kernels of TestRandomKernelsDeterministic. In the region shape the caller's
// register array holds garbage outside the live-in set, so the registers the
// liveness analysis did not name must read zero — from the recycled register
// file as from a fresh one.
func TestRecycledWarpStepsLikeFresh(t *testing.T) {
	const base, n = 0x1000_0000, 256
	mk := func() *mem.Flat {
		m := mem.NewFlat()
		for i := uint64(0); i < n; i++ {
			m.Store4(base+4*i, uint32(i*2654435761))
		}
		return m
	}
	r := rand.New(rand.NewSource(99))
	for trial := 0; trial < 60; trial++ {
		k := randomStructuredKernel(r)
		info, err := cfgx.Analyze(k)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		wi := WarpInfo{CtaID: trial % 2, WarpInCTA: trial % 2, NTid: 48, NCtaid: 2}
		params := []uint64{base, n}

		mf, mr := mk(), mk()
		fresh := NewWarp(k, info, wi, nil, params)
		recycled := dirtyWarp()
		recycled.Reset(k, info, wi, nil, params)
		stepLockstep(t, fmt.Sprintf("trial %d", trial), fresh, recycled, mf, mr)

		// Region shape: everything between the address prologue and the
		// exit, entered with the prologue's registers live and the rest of
		// the caller's array poisoned.
		const prologue = 5
		pro, gPro := NewWarp(k, info, wi, nil, params), NewGlobal(mk())
		for i := 0; i < prologue; i++ {
			pro.Step(gPro)
		}
		liveIn := uint64(1<<prologue - 1) // r0..r4
		regs := make([][isa.WarpSize]uint64, k.NumRegs)
		for reg := range regs {
			for lane := range regs[reg] {
				regs[reg][lane] = 0x0bad_0bad_0bad_0bad
			}
			if liveIn&(1<<reg) != 0 {
				regs[reg] = pro.Regs[reg]
			}
		}
		endPC := len(k.Instrs) - 1 // the exit
		mf, mr = mk(), mk()
		fresh = NewRegionWarp(k, info, wi, pro.ActiveMask(), prologue, endPC, liveIn, regs)
		recycled = dirtyWarp()
		recycled.ResetRegion(k, info, wi, pro.ActiveMask(), prologue, endPC, liveIn, regs)
		for reg := range recycled.Regs {
			if liveIn&(1<<reg) == 0 && recycled.Regs[reg] != [isa.WarpSize]uint64{} {
				t.Fatalf("trial %d: recycled region warp starts with r%d = %#x, not live-in so it must read zero",
					trial, reg, recycled.Regs[reg][0])
			}
		}
		stepLockstep(t, fmt.Sprintf("trial %d region", trial), fresh, recycled, mf, mr)
	}
}
