package exec

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/cfgx"
	"repro/internal/isa"
	"repro/internal/mem"
)

// The scalar oracle: the interpreter as it was before Step dispatched per
// warp-instruction — one lane at a time, operand kind and opcode decided
// per lane, straight from isa.Instr, one word access per lane, and the
// timing model's old lanes-by-lines coalescing loop. It shares nothing with
// Step but the SIMT stack and the scalar aluOp, and is what the
// differentials below hold the lane-vector interpreter to.

func specialScalar(wi WarpInfo, s isa.Special, lane int) uint64 {
	tid := wi.WarpInCTA*isa.WarpSize + lane
	switch s {
	case isa.SpLane:
		return uint64(lane)
	case isa.SpTid:
		return uint64(tid)
	case isa.SpCtaid:
		return uint64(wi.CtaID)
	case isa.SpNtid:
		return uint64(wi.NTid)
	case isa.SpNctaid:
		return uint64(wi.NCtaid)
	case isa.SpGtid:
		return uint64(wi.CtaID*wi.NTid + tid)
	case isa.SpWarpid:
		return uint64(wi.WarpInCTA)
	}
	return 0
}

func (w *Warp) evalScalar(o isa.Operand, lane int) uint64 {
	switch o.Kind {
	case isa.OpdReg:
		return w.Regs[o.Reg][lane]
	case isa.OpdImm:
		return uint64(o.Imm)
	case isa.OpdSpecial:
		return specialScalar(w.WInfo, o.Sp, lane)
	}
	return 0
}

func cmpInt(c isa.Cmp, a, b int64) bool {
	switch c {
	case isa.CmpEQ:
		return a == b
	case isa.CmpNE:
		return a != b
	case isa.CmpLT:
		return a < b
	case isa.CmpLE:
		return a <= b
	case isa.CmpGT:
		return a > b
	case isa.CmpGE:
		return a >= b
	}
	return false
}

func cmpFloat(c isa.Cmp, a, b float32) bool {
	switch c {
	case isa.CmpEQ:
		return a == b
	case isa.CmpNE:
		return a != b
	case isa.CmpLT:
		return a < b
	case isa.CmpLE:
		return a <= b
	case isa.CmpGT:
		return a > b
	case isa.CmpGE:
		return a >= b
	}
	return false
}

// stepScalar is Step, one lane at a time.
func (w *Warp) stepScalar(g *Global) StepResult {
	w.popConverged()
	if len(w.stack) == 0 {
		return StepResult{Kind: StepNone, Done: true}
	}
	top := &w.stack[len(w.stack)-1]
	pc := top.pc
	in := &w.Kernel.Instrs[pc]
	mask := top.mask & w.alive
	res := StepResult{PC: pc, Op: in.Op, Dst: in.Dst, HasDst: in.HasDst, ActiveLanes: bits.OnesCount32(mask)}

	switch in.Op {
	case isa.OpNop:
		res.Kind = StepALU
		top.pc++

	case isa.OpBar:
		res.Kind = StepBarrier
		top.pc++

	case isa.OpExit:
		res.Kind = StepExit
		w.alive &^= mask
		top.pc++

	case isa.OpBra:
		res.Kind = StepBranch
		var taken uint32
		if in.A.Kind == isa.OpdNone {
			taken = mask
		} else {
			for lane := 0; lane < isa.WarpSize; lane++ {
				if mask&(1<<lane) == 0 {
					continue
				}
				p := w.evalScalar(in.A, lane) != 0
				if in.PredNeg {
					p = !p
				}
				if p {
					taken |= 1 << lane
				}
			}
		}
		fall := mask &^ taken
		switch {
		case fall == 0:
			top.pc = in.Target
		case taken == 0:
			top.pc++
		default:
			rpc := w.Info.Reconv[pc]
			if top.rpc >= 0 && rpc > top.rpc {
				rpc = top.rpc
			}
			top.pc = rpc
			w.stack = append(w.stack,
				simtEntry{pc: pc + 1, rpc: rpc, mask: fall},
				simtEntry{pc: in.Target, rpc: rpc, mask: taken})
		}

	case isa.OpSetp, isa.OpFSetp:
		res.Kind = StepALU
		for lane := 0; lane < isa.WarpSize; lane++ {
			if mask&(1<<lane) == 0 {
				continue
			}
			var v bool
			if in.Op == isa.OpSetp {
				v = cmpInt(in.Cmp, int64(w.evalScalar(in.A, lane)), int64(w.evalScalar(in.B, lane)))
			} else {
				v = cmpFloat(in.Cmp, f32(w.evalScalar(in.A, lane)), f32(w.evalScalar(in.B, lane)))
			}
			w.Regs[in.Dst][lane] = b2u(v)
		}
		top.pc++

	case isa.OpLdGlobal, isa.OpStGlobal, isa.OpAtomAdd:
		res.Kind = StepMem
		var lanes []int
		for lane := 0; lane < isa.WarpSize; lane++ {
			if mask&(1<<lane) == 0 {
				continue
			}
			lanes = append(lanes, lane)
			addr := w.evalScalar(in.A, lane) + uint64(in.Imm)
			g.Addrs[lane] = addr
			switch in.Op {
			case isa.OpLdGlobal:
				w.Regs[in.Dst][lane] = uint64(g.Mem.Load4(addr))
			case isa.OpStGlobal:
				g.Mem.Store4(addr, uint32(w.evalScalar(in.B, lane)))
			case isa.OpAtomAdd:
				old := g.Mem.Load4(addr)
				g.Mem.Store4(addr, old+uint32(w.evalScalar(in.B, lane)))
				w.Regs[in.Dst][lane] = uint64(old)
			}
		}
		g.n = copy(g.lines[:], coalesceScalar(g.LineBytes, lanes, &g.Addrs))
		top.pc++

	case isa.OpLdShared, isa.OpStShared:
		res.Kind = StepShared
		for lane := 0; lane < isa.WarpSize; lane++ {
			if mask&(1<<lane) == 0 {
				continue
			}
			addr := (w.evalScalar(in.A, lane) + uint64(in.Imm)) / isa.WordBytes
			if in.Op == isa.OpLdShared {
				w.Regs[in.Dst][lane] = uint64(w.Shared[addr])
			} else {
				w.Shared[addr] = uint32(w.evalScalar(in.B, lane))
			}
		}
		top.pc++

	default: // ALU
		res.Kind = StepALU
		for lane := 0; lane < isa.WarpSize; lane++ {
			if mask&(1<<lane) == 0 {
				continue
			}
			a := w.evalScalar(in.A, lane)
			var b, c uint64
			if in.B.Kind != isa.OpdNone {
				b = w.evalScalar(in.B, lane)
			}
			if in.C.Kind != isa.OpdNone {
				c = w.evalScalar(in.C, lane)
			}
			w.Regs[in.Dst][lane] = aluOp(in.Op, a, b, c)
		}
		top.pc++
	}

	w.popConverged()
	res.Done = len(w.stack) == 0
	return res
}

// coalesceScalar is the reference coalescing, the loop the timing model's
// LSU ran over per-lane accesses: each lane, in the order given, joins the
// first line holding its address, or opens a new line after the others.
func coalesceScalar(lineBytes uint64, lanes []int, addrs *isa.Row) []Line {
	var lines []Line
	for _, lane := range lanes {
		l := addrs[lane] &^ (lineBytes - 1)
		i := 0
		for i < len(lines) && lines[i].Addr != l {
			i++
		}
		if i == len(lines) {
			lines = append(lines, Line{Addr: l})
		}
		lines[i].Lanes |= 1 << lane
	}
	return lines
}

// sameGlobalStep reports how two Globals' records of one global memory step
// under mask differ — lines (order and lanes), then the lane address row
// under the mask — or "" when they agree.
func sameGlobalStep(a, b *Global, mask uint32) string {
	if !reflect.DeepEqual(a.Lines(), b.Lines()) {
		return fmt.Sprintf("lines differ\n %v\n %v", a.Lines(), b.Lines())
	}
	for lane := 0; lane < isa.WarpSize; lane++ {
		if mask&(1<<lane) != 0 && a.Addrs[lane] != b.Addrs[lane] {
			return fmt.Sprintf("lane %d address %#x, %#x", lane, a.Addrs[lane], b.Addrs[lane])
		}
	}
	return ""
}

var (
	nan32    = uint64(math.Float32bits(float32(math.NaN())))
	posInf32 = uint64(math.Float32bits(float32(math.Inf(1))))
	negInf32 = uint64(math.Float32bits(float32(math.Inf(-1))))
)

func fb(f float32) uint64 { return uint64(math.Float32bits(f)) }

// edgeLanes is the (A, B, C) value of each lane in the per-opcode table:
// every case the ISA comments single out sits on some lane, as integers and
// as float32 bit patterns, with the upper register half set on a few so that
// a 32-bit shortcut would show.
var edgeLanes = [isa.WarpSize][3]uint64{
	{0, 0, 0},
	{1, 0, 1},                                     // div/rem by zero
	{1 << 63, ^uint64(0), 0},                      // MinInt64 / -1
	{1 << 63, 1, 1},                               //
	{^uint64(0), 1 << 63, 0},                      // -1 vs MinInt64
	{1<<63 - 1, 1, 1},                             // MaxInt64 + 1 wraps
	{0xdead_beef_0000_0007, 63, 0},                // shift by 63
	{0xdead_beef_0000_0007, 64, 1},                // shift by 64: count is B & 63
	{0xdead_beef_0000_0007, 200, 0},               // shift by 200
	{7, ^uint64(2), 1},                            // positive / negative
	{^uint64(6), 3, 0},                            // negative / positive
	{nan32, fb(1), fb(2)},                         // NaN compares false, except NE
	{fb(1), nan32, nan32},                         //
	{nan32, nan32, 0},                             //
	{posInf32, negInf32, fb(1)},                   // Inf - Inf, Inf * x
	{posInf32, posInf32, negInf32},                //
	{fb(0), fb(float32(math.Copysign(0, -1))), 0}, // +0 == -0
	{fb(1.5), fb(0), fb(0)},                       // fdiv by zero -> +Inf
	{fb(-1.5), fb(0), 1},                          // -> -Inf
	{fb(3e9), fb(2), fb(1)},                       // cvt.fi above int32 range
	{fb(-3e9), fb(2), 0},                          // below
	{fb(1e20), fb(1e20), fb(-1e38)},               // fmul overflow, fma cancellation
	{fb(math.SmallestNonzeroFloat32), fb(0.5), 1},
	{fb(16777217), fb(1), 0},                // cvt.if rounding boundary
	{1<<31 - 1, 1, 1},                       // MaxInt32 for cvt.if
	{1 << 31, 1<<32 | 5, 0},                 // high bits beyond the float half
	{1<<32 | fb(2.5), 1<<40 | fb(4), fb(1)}, // floats with junk above bit 31
	{5, 5, 1},                               // equal
	{4, 5, 0},                               // less
	{6, 5, 1},                               // greater
	{^uint64(0), ^uint64(0), 0},             // -1 == -1
	{0x0123_4567_89ab_cdef, 0xfedc_ba98_7654_3210, 1},
}

// maskShapes are the active-lane shapes every table case runs under.
var maskShapes = []struct {
	name string
	mask uint32
}{
	{"full", 0xffff_ffff},
	{"sparse", 0xa5c3_0f19},
	{"single", 1 << 13},
	{"tail-inactive", 0x000f_ffff},
}

// opdKinds enumerates how a source can be written.
var opdKinds = []isa.OperandKind{isa.OpdReg, isa.OpdImm, isa.OpdSpecial, isa.OpdNone}

// tableCase is one opcode of the per-opcode differential.
type tableCase struct {
	name string
	in   isa.Instr // A, B, C are filled in per operand-kind combination
	srcs int       // sources the opcode reads: A, A+B or A+B+C
	addr bool      // A is an address: use in-range values, not edgeLanes
}

func tableCases() []tableCase {
	var cs []tableCase
	pure := func(op isa.Op, srcs int) {
		cs = append(cs, tableCase{name: op.String(), in: isa.Instr{Op: op, HasDst: true}, srcs: srcs})
	}
	for _, op := range []isa.Op{isa.OpMov, isa.OpFNeg, isa.OpCvtIF, isa.OpCvtFI} {
		pure(op, 1)
	}
	for _, op := range []isa.Op{isa.OpAdd, isa.OpSub, isa.OpMul, isa.OpDiv, isa.OpRem, isa.OpMin, isa.OpMax,
		isa.OpAnd, isa.OpOr, isa.OpXor, isa.OpShl, isa.OpShr, isa.OpFAdd, isa.OpFSub, isa.OpFMul, isa.OpFDiv} {
		pure(op, 2)
	}
	pure(isa.OpFMA, 3)
	pure(isa.OpSelp, 3)
	for _, op := range []isa.Op{isa.OpSetp, isa.OpFSetp} {
		for c := isa.CmpEQ; c <= isa.CmpGE; c++ {
			cs = append(cs, tableCase{name: fmt.Sprintf("%v.%v", op, c),
				in: isa.Instr{Op: op, Cmp: c, HasDst: true}, srcs: 2})
		}
	}
	cs = append(cs,
		tableCase{name: "ld.global", in: isa.Instr{Op: isa.OpLdGlobal, HasDst: true, Imm: 8}, srcs: 1, addr: true},
		tableCase{name: "st.global", in: isa.Instr{Op: isa.OpStGlobal, Imm: 8}, srcs: 2, addr: true},
		tableCase{name: "atom.add", in: isa.Instr{Op: isa.OpAtomAdd, HasDst: true, Imm: 8}, srcs: 2, addr: true},
		tableCase{name: "ld.shared", in: isa.Instr{Op: isa.OpLdShared, HasDst: true, Imm: 8}, srcs: 1, addr: true},
		tableCase{name: "st.shared", in: isa.Instr{Op: isa.OpStShared, Imm: 8}, srcs: 2, addr: true},
		tableCase{name: "bra", in: isa.Instr{Op: isa.OpBra, Target: 2}, srcs: 1},
		tableCase{name: "bra.not", in: isa.Instr{Op: isa.OpBra, Target: 2, PredNeg: true}, srcs: 1},
		tableCase{name: "nop", in: isa.Instr{Op: isa.OpNop}},
		tableCase{name: "bar.sync", in: isa.Instr{Op: isa.OpBar}},
		tableCase{name: "exit", in: isa.Instr{Op: isa.OpExit}},
	)
	return cs
}

// TestStepMatchesScalarOracleTable steps one instruction on the lane-vector
// interpreter and on the scalar oracle, for every opcode, every way of
// writing each source (register, immediate, special, absent), every mask
// shape, and a destination that is a fresh register or aliases a source.
// Everything observable must agree — StepResult, register file (atomics'
// returned values included), pc, mask, the lines with their lanes in order,
// the lane addresses under the mask, the global memory image (colliding
// stores included), shared memory — and no inactive lane of any register
// may change.
func TestStepMatchesScalarOracleTable(t *testing.T) {
	const (
		nregs  = 5   // r1..r3 = A, B, C rows; r4 = the fresh destination
		shared = 128 // words; every address the table forms is below it
	)
	wi := WarpInfo{CtaID: 3, WarpInCTA: 1, NTid: 96, NCtaid: 7}
	specials := [3]isa.Special{isa.SpGtid, isa.SpLane, isa.SpNtid}
	// Two immediates per position, edge values; an address A gets a word in
	// range of shared memory instead.
	imms := [2][3]int64{{math.MinInt64, -1, 0}, {int64(nan32), 70, 1}}

	for _, tc := range tableCases() {
		kinds := len(opdKinds)
		combos := 1
		for i := 0; i < tc.srcs; i++ {
			combos *= kinds
		}
		if tc.srcs == 0 {
			combos = 1
		}
		for combo := 0; combo < combos; combo++ {
			var opd [3]isa.OperandKind
			for i, c := 0, combo; i < 3; i, c = i+1, c/kinds {
				opd[i] = isa.OpdNone
				if i < tc.srcs {
					opd[i] = opdKinds[c%kinds]
				}
			}
			for immSet := range imms {
				for _, dst := range []isa.Reg{4, 1, 2} {
					in := tc.in
					in.Dst = dst
					src := [3]*isa.Operand{&in.A, &in.B, &in.C}
					for i, k := range opd {
						switch k {
						case isa.OpdReg:
							*src[i] = isa.R(isa.Reg(1 + i))
						case isa.OpdImm:
							*src[i] = isa.Imm(imms[immSet][i])
							if tc.addr && i == 0 {
								*src[i] = isa.Imm(16)
							}
						case isa.OpdSpecial:
							*src[i] = isa.Sp(specials[i])
						}
					}
					k := &isa.Kernel{Name: tc.name, NumRegs: nregs, SharedBytes: 4 * shared,
						Instrs: []isa.Instr{in, {Op: isa.OpNop}, {Op: isa.OpExit}}}
					info, err := cfgx.Analyze(k)
					if err != nil {
						t.Fatalf("%s: %v", tc.name, err)
					}
					for _, ms := range maskShapes {
						what := fmt.Sprintf("%s A=%v B=%v C=%v dst=r%d %s", tc.name, in.A, in.B, in.C, dst, ms.name)
						regs := make([][isa.WarpSize]uint64, nregs)
						for lane, v := range edgeLanes {
							regs[1][lane], regs[2][lane], regs[3][lane] = v[0], v[1], v[2]
							if tc.addr {
								// Eight words for 32 lanes: stores collide
								// (last lane wins), atomics accumulate.
								regs[1][lane] = uint64(4 * (lane % 8))
							}
							regs[4][lane] = 0x5151_5151_5151_5151
						}
						run := func(step func(*Warp, *Global) StepResult) (*Warp, *Global, StepResult) {
							g := NewGlobal(mem.NewFlat())
							for i := uint64(0); i < shared; i++ {
								g.Mem.Store4(i*4, uint32(0x1000+i))
							}
							w := NewRegionWarp(k, info, wi, ms.mask, 0, len(k.Instrs), 1<<nregs-1, regs)
							w.Shared = make([]uint32, shared)
							for i := range w.Shared {
								w.Shared[i] = uint32(0x2000 + i)
							}
							return w, g, step(w, g)
						}
						vec, gv, rv := run((*Warp).Step)
						ora, gOra, ro := run((*Warp).stepScalar)
						if !reflect.DeepEqual(rv, ro) {
							t.Fatalf("%s: Step returned %+v, oracle %+v", what, rv, ro)
						}
						if !reflect.DeepEqual(vec.Regs, ora.Regs) {
							t.Fatalf("%s: register files differ\n step   %x\n oracle %x", what, vec.Regs[dst], ora.Regs[dst])
						}
						if vec.PC() != ora.PC() || vec.ActiveMask() != ora.ActiveMask() || vec.Done() != ora.Done() {
							t.Fatalf("%s: Step at pc %d mask %#x, oracle at pc %d mask %#x",
								what, vec.PC(), vec.ActiveMask(), ora.PC(), ora.ActiveMask())
						}
						if rv.Kind == StepMem {
							if diff := sameGlobalStep(gv, gOra, ms.mask); diff != "" {
								t.Fatalf("%s: step and oracle: %s", what, diff)
							}
						}
						if ok, addr := mem.Equal(gv.Mem, gOra.Mem); !ok {
							t.Fatalf("%s: global memory differs at %#x", what, addr)
						}
						if !reflect.DeepEqual(vec.Shared, ora.Shared) {
							t.Fatalf("%s: shared memory differs", what)
						}
						for r := range vec.Regs {
							for lane := 0; lane < isa.WarpSize; lane++ {
								if ms.mask&(1<<lane) == 0 && vec.Regs[r][lane] != regs[r][lane] {
									t.Fatalf("%s: inactive lane %d of r%d written: %#x -> %#x",
										what, lane, r, regs[r][lane], vec.Regs[r][lane])
								}
							}
						}
					}
				}
			}
		}
	}
}

// lockstep runs two warps side by side over their own copies of one memory
// image, a by stepA over ga and b by stepB over gb: every step's result,
// every register, pc, mask, every memory step's lines and lane addresses,
// and the final memory must agree bit for bit.
func lockstep(t *testing.T, what string, a, b *Warp, stepA, stepB func(*Warp, *Global) StepResult, ga, gb *Global) {
	t.Helper()
	for step := 0; !a.Done(); step++ {
		if step > 100_000 {
			t.Fatalf("%s: warp did not terminate", what)
		}
		if b.Done() {
			t.Fatalf("%s: second warp finished at step %d, first one is at pc %d", what, step, a.PC())
		}
		mask := a.ActiveMask()
		ra, rb := stepA(a, ga), stepB(b, gb)
		if !reflect.DeepEqual(ra, rb) {
			t.Fatalf("%s step %d: first stepped %+v, second %+v", what, step, ra, rb)
		}
		if ra.Kind == StepMem {
			if diff := sameGlobalStep(ga, gb, mask); diff != "" {
				t.Fatalf("%s step %d (pc %d): %s", what, step, ra.PC, diff)
			}
		}
		if !reflect.DeepEqual(a.Regs, b.Regs) {
			t.Fatalf("%s step %d (pc %d): register files differ", what, step, ra.PC)
		}
		if a.ActiveMask() != b.ActiveMask() || a.PC() != b.PC() {
			t.Fatalf("%s step %d: first at pc %d mask %#x, second at pc %d mask %#x", what, step,
				a.PC(), a.ActiveMask(), b.PC(), b.ActiveMask())
		}
	}
	if !b.Done() {
		t.Fatalf("%s: second warp still running after the first finished", what)
	}
	if ok, addr := mem.Equal(ga.Mem, gb.Mem); !ok {
		t.Fatalf("%s: memory images differ at %#x", what, addr)
	}
}

// TestRandomKernelsMatchScalarOracle: over the random kernels of
// TestRandomKernelsDeterministic — divergent guarded skips, a counted loop,
// sources that no instruction ever wrote — Step and the scalar oracle agree
// after every step on the whole register file, pc, mask, every StepResult
// field and every memory step's lines, for a fresh warp, a recycled one
// (Reset over a dirtied warp) and a region warp (ResetRegion, live-ins only).
func TestRandomKernelsMatchScalarOracle(t *testing.T) {
	const base, n = 0x1000_0000, 256
	mk := func() *mem.Flat {
		m := mem.NewFlat()
		for i := uint64(0); i < n; i++ {
			m.Store4(base+4*i, uint32(i*2654435761))
		}
		return m
	}
	r := rand.New(rand.NewSource(2023))
	diverged := 0
	for trial := 0; trial < 120; trial++ {
		k := randomStructuredKernel(r)
		info, err := cfgx.Analyze(k)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		// NTid 48 leaves the second warp of a CTA with a tail-inactive mask.
		wi := WarpInfo{CtaID: trial % 3, WarpInCTA: trial % 2, NTid: 48, NCtaid: 3}
		params := []uint64{base, n}
		what := fmt.Sprintf("trial %d", trial)

		gv, gOra := NewGlobal(mk()), NewGlobal(mk())
		vec, ora := NewWarp(k, info, wi, nil, params), NewWarp(k, info, wi, nil, params)
		countDivergence := func(w *Warp, g *Global) StepResult {
			res := w.Step(g)
			if len(w.stack) > 1 {
				diverged++
			}
			return res
		}
		lockstep(t, what+" fresh", vec, ora, countDivergence, (*Warp).stepScalar, gv, gOra)

		gv, gOra = NewGlobal(mk()), NewGlobal(mk())
		vec, ora = dirtyWarp(), dirtyWarp()
		vec.Reset(k, info, wi, nil, params)
		ora.Reset(k, info, wi, nil, params)
		lockstep(t, what+" recycled", vec, ora, (*Warp).Step, (*Warp).stepScalar, gv, gOra)

		// Region shape, as TestRecycledWarpStepsLikeFresh builds it: enter
		// after the address prologue with its registers live and the rest
		// of the caller's array poisoned, under a sparse mask.
		const prologue = 5
		pro, gPro := NewWarp(k, info, wi, nil, params), NewGlobal(mk())
		for i := 0; i < prologue; i++ {
			pro.Step(gPro)
		}
		liveIn := uint64(1<<prologue - 1)
		regs := make([][isa.WarpSize]uint64, k.NumRegs)
		for reg := range regs {
			for lane := range regs[reg] {
				regs[reg][lane] = 0x0bad_0bad_0bad_0bad
			}
			if liveIn&(1<<reg) != 0 {
				regs[reg] = pro.Regs[reg]
			}
		}
		mask := pro.ActiveMask() & 0xb6db_6db6
		endPC := len(k.Instrs) - 1
		gv, gOra = NewGlobal(mk()), NewGlobal(mk())
		vec, ora = dirtyWarp(), dirtyWarp()
		vec.ResetRegion(k, info, wi, mask, prologue, endPC, liveIn, regs)
		ora.ResetRegion(k, info, wi, mask, prologue, endPC, liveIn, regs)
		lockstep(t, what+" region", vec, ora, (*Warp).Step, (*Warp).stepScalar, gv, gOra)
	}
	if diverged == 0 {
		t.Fatal("no trial ever diverged: the generator no longer exercises the SIMT stack")
	}
}

// TestStepLinesMatchScalarCoalescing: over random masks, line sizes and lane
// addresses, each global memory op's lines equal the scalar coalescing
// reference — the same lines in the same order with the same lanes — and
// its loaded and returned values, lane addresses and memory image equal the
// scalar oracle's. Addresses come from a few lines on both sides of a page
// boundary, so a line comes back after others and runs of lanes cross
// pages, and from a page the memory does not hold, which a load must leave
// absent. Both sides step over clones, so every store copies a shared page.
func TestStepLinesMatchScalarCoalescing(t *testing.T) {
	const edge, absent = mem.AllocBase + mem.PageBytes, 1 << 40
	bases := []uint64{edge - 256, edge - 128, edge, edge + 128, absent, absent + 128}
	mk := func() *mem.Flat {
		m := mem.NewFlat()
		for a := uint64(edge - 256); a < edge+256; a += 4 {
			m.Store4(a, uint32(a*2654435761))
		}
		return m
	}
	pristine, base := mk(), mk()
	zero := mem.NewFlat().LoadPage(absent) // what a page the memory lacks reads as
	ops := []isa.Instr{
		{Op: isa.OpLdGlobal, HasDst: true, Dst: 2, A: isa.R(1)},
		{Op: isa.OpStGlobal, A: isa.R(1), B: isa.R(3)},
		{Op: isa.OpAtomAdd, HasDst: true, Dst: 2, A: isa.R(1), B: isa.R(3)},
	}
	wi := WarpInfo{NTid: 32, NCtaid: 1}
	r := rand.New(rand.NewSource(43))
	var revisits, crossings, absentLoads int
	for trial := 0; trial < 3000; trial++ {
		in := ops[trial%len(ops)]
		k := &isa.Kernel{Name: in.Op.String(), NumRegs: 4, Instrs: []isa.Instr{in, {Op: isa.OpExit}}}
		info, err := cfgx.Analyze(k)
		if err != nil {
			t.Fatal(err)
		}
		mask := r.Uint32() & r.Uint32() // sparse as often as dense
		if trial%5 == 0 {
			mask = 0xffff_ffff
		}
		mask |= 1 << r.Intn(isa.WarpSize)
		regs := make([][isa.WarpSize]uint64, k.NumRegs)
		for lane := range regs[1] {
			regs[1][lane] = bases[r.Intn(len(bases))] + 4*uint64(r.Intn(32))
			regs[2][lane] = 0x5151_5151
			regs[3][lane] = r.Uint64()
		}
		lineBytes := uint64(32) << r.Intn(4)
		gv := &Global{Mem: base.Clone(), LineBytes: lineBytes}
		gOra := &Global{Mem: base.Clone(), LineBytes: lineBytes}
		wasAbsent := map[uint64]bool{}
		for m := mask; m != 0; m &= m - 1 {
			if a := regs[1][bits.TrailingZeros32(m)]; gv.Mem.LoadPage(a) == zero {
				wasAbsent[a] = true
			}
		}
		vec := NewRegionWarp(k, info, wi, mask, 0, 1, 1<<k.NumRegs-1, regs)
		ora := NewRegionWarp(k, info, wi, mask, 0, 1, 1<<k.NumRegs-1, regs)
		what := fmt.Sprintf("trial %d: %v mask %#x, %d-byte lines", trial, in.Op, mask, lineBytes)
		lockstep(t, what, vec, ora, (*Warp).Step, (*Warp).stepScalar, gv, gOra)
		if in.Op == isa.OpLdGlobal {
			for a := range wasAbsent {
				if gv.Mem.LoadPage(a) != zero {
					t.Fatalf("%s: the load at %#x materialised its page", what, a)
				}
				absentLoads++
			}
		}

		// What the generator reached: a line that comes back after another
		// one, and consecutive active lanes on different pages.
		var seen []uint64  // line of each active lane so far
		prev := ^uint64(0) // address of the previous active lane
		for m := mask; m != 0; m &= m - 1 {
			a := regs[1][bits.TrailingZeros32(m)]
			l := a &^ (lineBytes - 1)
			if n := len(seen); n > 0 && l != seen[n-1] && slices.Contains(seen, l) {
				revisits++
			}
			if prev != ^uint64(0) && a/mem.PageBytes != prev/mem.PageBytes {
				crossings++
			}
			prev, seen = a, append(seen, l)
		}
	}
	if ok, addr := mem.Equal(base, pristine); !ok {
		t.Fatalf("a clone's store reached the shared image at %#x", addr)
	}
	if revisits == 0 || crossings == 0 || absentLoads == 0 {
		t.Fatalf("generator too narrow: %d line revisits, %d page crossings, %d absent loads",
			revisits, crossings, absentLoads)
	}
}
