package exec

import (
	"testing"

	"repro/internal/cfgx"
	"repro/internal/isa"
	"repro/internal/mem"
)

type stepLoop struct {
	name string
	body func(b *isa.Builder, i int)
}

// stepLoops are the BenchmarkWarpStep shapes: a prologue that sets up an
// address and a predicate per lane, then the named instruction mix repeated,
// so that steps of anything else are a rounding error.
var stepLoops = []stepLoop{
	{"alu", func(b *isa.Builder, i int) { b.Add(isa.Reg(8+i%4), isa.R(2), isa.R(isa.Reg(8+(i+1)%4))) }},
	{"falu", func(b *isa.Builder, i int) { b.FMA(isa.Reg(8+i%4), isa.R(5), isa.ImmF(1.5), isa.R(isa.Reg(8+(i+1)%4))) }},
	{"setp", func(b *isa.Builder, i int) { b.Setp(isa.Reg(8+i%4), isa.CmpLT, isa.R(2), isa.Imm(int64(i))) }},
	{"ld", func(b *isa.Builder, i int) { b.Ld(isa.Reg(8+i%4), isa.R(3), int64(4*(i%8))) }},
	{"st", func(b *isa.Builder, i int) { b.St(isa.R(3), int64(4*(i%8)), isa.R(2)) }},
	{"shared", func(b *isa.Builder, i int) { b.LdShared(isa.Reg(8+i%4), isa.R(4), 0) }},
	// A branch the odd lanes take, an add under the even half of the mask,
	// and an add after reconvergence.
	{"divergent", func(b *isa.Builder, i int) {
		label := "join" + string(rune('0'+i/10)) + string(rune('0'+i%10))
		b.BraIf(isa.R(6), label)
		b.Add(8, isa.R(8), isa.R(2))
		b.Label(label)
		b.Add(9, isa.R(9), isa.R(2))
	}},
}

const stepLoopReps = 64

// stepLoopWarp returns a function that steps a warp through the loop once
// per call, rewinding to the loop's first instruction instead of running
// into the exit.
func stepLoopWarp(tb testing.TB, sl stepLoop) (step func() StepResult) {
	tb.Helper()
	const base = 0x1000_0000
	b := isa.NewBuilder("steploop_"+sl.name, 1) // r0 = data base
	b.SetShared(4 * 64)
	b.Mov(2, isa.Sp(isa.SpGtid))
	b.Shl(3, isa.R(2), isa.Imm(2))
	b.Mov(4, isa.R(3))             // r4 = shared byte offset of this lane
	b.Add(3, isa.R(0), isa.R(3))   // r3 = &data[gtid]
	b.CvtIF(5, isa.R(2))           // r5 = float(gtid)
	b.And(6, isa.R(2), isa.Imm(1)) // r6 = lane parity
	start := b.PC()
	for i := 0; i < stepLoopReps; i++ {
		sl.body(b, i)
	}
	end := b.PC()
	b.Exit()
	k := b.MustBuild()
	info, err := cfgx.Analyze(k)
	if err != nil {
		tb.Fatal(err)
	}
	m := mem.NewFlat()
	for i := uint64(0); i < 64; i++ {
		m.Store4(base+4*i, uint32(i))
	}
	w, g := NewWarp(k, info, WarpInfo{NTid: 32, NCtaid: 1}, make([]uint32, 64), []uint64{base}), NewGlobal(m)
	for w.PC() != start {
		w.Step(g)
	}
	return func() StepResult {
		if w.PC() == end {
			w.SkipTo(start)
		}
		return w.Step(g)
	}
}

var stepSink StepResult

// BenchmarkWarpStep prices one warp-instruction of each kind on the
// interpreter alone (ns/op is ns per warp-instruction), so that a
// regression shows in seconds, not through the repository benchmark.
func BenchmarkWarpStep(b *testing.B) {
	for _, sl := range stepLoops {
		b.Run(sl.name, func(b *testing.B) {
			step := stepLoopWarp(b, sl)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				stepSink = step()
			}
		})
	}
}

// TestWarpStepDoesNotAllocate: no kind of step allocates, the first one
// included — rows resolve to the register file, the kernel's immediates or
// the stack, and a memory step's lines to the stepper's Global.
func TestWarpStepDoesNotAllocate(t *testing.T) {
	for _, sl := range stepLoops {
		step := stepLoopWarp(t, sl)
		if n := testing.AllocsPerRun(4*stepLoopReps, func() { stepSink = step() }); n != 0 {
			t.Errorf("%s: %.2f allocations per step, want 0", sl.name, n)
		}
	}
}
