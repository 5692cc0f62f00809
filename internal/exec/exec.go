// Package exec implements the functional execution model for isa kernels:
// a 32-lane SIMT warp interpreter with a post-dominator reconvergence
// stack, plus a whole-grid functional runner used both as the reference
// model (the timing simulator must produce the identical final memory
// image) and as the execution engine inside the timing simulator itself.
//
// The interpreter is "functional-first": every Step applies the
// instruction's architectural effects immediately (register writes, memory
// stores, loads), and returns a descriptor of what happened so a timing
// layer can charge latency and bandwidth afterwards. Values are therefore
// always exact, and timing policies can never corrupt program results. A
// global memory instruction also leaves the cache lines it touched in the
// stepper's Global, coalesced once for every consumer.
//
// Step dispatches once per warp-instruction over the kernel's lowered form
// (isa.Program): sources resolve to 32-lane rows and each opcode is one loop
// over them (DESIGN.md "Interpreter").
package exec

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/cfgx"
	"repro/internal/isa"
	"repro/internal/mem"
)

// Global is global memory as whoever steps warps sees it: the backing store,
// the line size accesses coalesce at, and the scratch in which Step leaves
// the last global memory instruction's cache lines and lane addresses. The
// stepper owns one — the timing model one per System, the functional runner
// one per run — and lends it to every warp it steps; no warp keeps one.
type Global struct {
	Mem       *mem.Flat
	LineBytes uint64 // a power of two

	// Addrs holds the last global memory instruction's byte address per
	// lane; only the lanes of its Lines are meaningful.
	Addrs isa.Row
	lines [isa.WarpSize]Line
	n     int
}

// Line is one cache line a global memory instruction touches: its address
// and the lanes whose words lie in it.
type Line struct {
	Addr  uint64
	Lanes uint32
}

// Lines returns the last global memory instruction's cache lines in the
// order their lowest lanes come, which is how an LSU coalescing the active
// lanes in ascending order issues them. The slice is valid until the next
// global memory step.
func (g *Global) Lines() []Line { return g.lines[:g.n] }

// coalesce computes the lanes' addresses a+imm and gathers them into lines.
func (g *Global) coalesce(a *isa.Row, imm uint64, mask uint32) {
	lineMask := g.LineBytes - 1
	lines, n := &g.lines, 0
	for m := mask; m != 0; m &= m - 1 {
		lane := bits.TrailingZeros32(m) % isa.WarpSize
		addr := a[lane] + imm
		g.Addrs[lane] = addr
		l := addr &^ lineMask
		i := n - 1 // consecutive lanes mostly share the line just seen
		if n == 0 || lines[i].Addr != l {
			for i = 0; i < n && lines[i].Addr != l; i++ {
			}
			if i == n {
				lines[n] = Line{Addr: l}
				n++
			}
		}
		lines[i].Lanes |= 1 << lane
	}
	g.n = n
}

// WarpInfo locates a warp within its grid.
type WarpInfo struct {
	CtaID     int // CTA index within the grid
	WarpInCTA int // warp index within the CTA
	NTid      int // threads per CTA
	NCtaid    int // CTAs in the grid
}

// StepKind classifies what a Step did, for the timing layer.
type StepKind uint8

// Step kinds.
const (
	StepALU StepKind = iota
	StepMem          // global load/store/atomic: see Global.Lines
	StepShared
	StepBarrier
	StepBranch
	StepExit
	StepNone // warp already finished
)

// StepResult reports the architectural events of one warp-instruction.
type StepResult struct {
	Kind        StepKind
	PC          int // pc of the executed instruction
	Op          isa.Op
	Dst         isa.Reg
	HasDst      bool
	ActiveLanes int
	// Done reports that the warp (or region) has fully completed.
	Done bool
}

type simtEntry struct {
	pc   int
	rpc  int // reconvergence pc; -1 = never (base entry)
	mask uint32
}

// Warp is a 32-lane SIMT execution context.
type Warp struct {
	Kernel *isa.Kernel
	Info   *cfgx.Info
	WInfo  WarpInfo
	Shared []uint32 // CTA shared memory, shared across the CTA's warps

	// Regs[r][lane] is the architectural register file.
	Regs [][isa.WarpSize]uint64

	prog  *isa.Program // Kernel, lowered; a pointer keeps Warp in its 176-byte size class
	alive uint32       // lanes that have not exited
	// stack is kept converged: whatever moves the execution point (init,
	// SkipTo, Step) pops finished entries before returning, so the top entry
	// is always the next instruction to run and an empty stack means done.
	stack []simtEntry
}

// NewWarp creates a warp ready to execute from pc 0 with all lanes whose
// global thread index is inside the CTA's thread count active.
func NewWarp(k *isa.Kernel, info *cfgx.Info, wi WarpInfo, shared []uint32, params []uint64) *Warp {
	w := new(Warp)
	w.Reset(k, info, wi, shared, params)
	return w
}

// Reset makes w the warp NewWarp would return for the same arguments,
// reusing w's register file and SIMT stack. A timing model that retires and
// dispatches warps continuously recycles them through it.
func (w *Warp) Reset(k *isa.Kernel, info *cfgx.Info, wi WarpInfo, shared []uint32, params []uint64) {
	var mask uint32
	base := wi.WarpInCTA * isa.WarpSize
	for lane := 0; lane < isa.WarpSize; lane++ {
		if base+lane < wi.NTid {
			mask |= 1 << lane
		}
	}
	w.init(k, info, wi, shared, simtEntry{pc: 0, rpc: -1, mask: mask})
	for i, v := range params {
		if i >= k.NumRegs {
			break
		}
		for lane := 0; lane < isa.WarpSize; lane++ {
			w.Regs[i][lane] = v
		}
	}
}

// NewRegionWarp creates a warp positioned to execute the region
// [startPC, endPC) with the given active mask and (partial) register
// contents — the memory-stack SM side of an offload. regs supplies values
// for the registers named in liveIn; everything else starts zero, which
// exercises the liveness analysis for real.
func NewRegionWarp(k *isa.Kernel, info *cfgx.Info, wi WarpInfo, mask uint32,
	startPC, endPC int, liveIn uint64, regs [][isa.WarpSize]uint64) *Warp {
	w := new(Warp)
	w.ResetRegion(k, info, wi, mask, startPC, endPC, liveIn, regs)
	return w
}

// ResetRegion is Reset for the NewRegionWarp shape.
func (w *Warp) ResetRegion(k *isa.Kernel, info *cfgx.Info, wi WarpInfo, mask uint32,
	startPC, endPC int, liveIn uint64, regs [][isa.WarpSize]uint64) {
	w.init(k, info, wi, nil, simtEntry{pc: startPC, rpc: endPC, mask: mask})
	for r := 0; r < k.NumRegs; r++ {
		if liveIn&(1<<r) != 0 {
			w.Regs[r] = regs[r]
		}
	}
}

// zeroRegs is what a new register file is appended from (init).
var zeroRegs [isa.MaxRegs][isa.WarpSize]uint64

// init is the one place a warp's state is established, fresh or recycled:
// every field is assigned, the register file reads zero, and only backing
// storage survives from w's previous use.
func (w *Warp) init(k *isa.Kernel, info *cfgx.Info, wi WarpInfo, shared []uint32, base simtEntry) {
	regs := w.Regs
	if cap(regs) < k.NumRegs {
		// Appending to an empty slice gives the file its allocation's whole
		// size class as capacity: the bytes are paid for either way, and a
		// later kernel with a register or two more (BP's second launch, 16
		// after 15) then fits in the same file.
		regs = append(regs[:0:0], zeroRegs[:k.NumRegs]...)
	} else {
		regs = regs[:k.NumRegs]
		clear(regs)
	}
	*w = Warp{
		Kernel: k,
		Info:   info,
		WInfo:  wi,
		Shared: shared,
		Regs:   regs,
		prog:   k.Program(),
		alive:  base.mask,
		stack:  append(w.stack[:0], base),
	}
	w.popConverged()
}

// Done reports whether the warp has finished (all lanes exited or the
// region completed).
func (w *Warp) Done() bool { return len(w.stack) == 0 }

// PC returns the current pc, or -1 if done.
func (w *Warp) PC() int {
	if len(w.stack) == 0 {
		return -1
	}
	return w.stack[len(w.stack)-1].pc
}

// ActiveMask returns the current active lane mask (0 if done).
func (w *Warp) ActiveMask() uint32 {
	if len(w.stack) == 0 {
		return 0
	}
	return w.stack[len(w.stack)-1].mask & w.alive
}

// popConverged pops stack entries that have reached their reconvergence
// point or lost all live lanes.
func (w *Warp) popConverged() {
	for len(w.stack) > 0 {
		top := &w.stack[len(w.stack)-1]
		if top.mask&w.alive == 0 {
			w.stack = w.stack[:len(w.stack)-1]
			continue
		}
		if top.rpc >= 0 && top.pc == top.rpc {
			w.stack = w.stack[:len(w.stack)-1]
			continue
		}
		return
	}
}

// NextInstr returns the lowered instruction about to execute. Valid only if
// !Done. It points into the kernel's shared program; callers must not
// mutate it.
func (w *Warp) NextInstr() *isa.Decoded {
	return &w.prog.Code[w.stack[len(w.stack)-1].pc]
}

// SkipTo repositions the current execution point — used by the main GPU SM
// to jump past an offloaded region once the offload acknowledgment (with
// live-out registers) arrives.
func (w *Warp) SkipTo(pc int) {
	if len(w.stack) == 0 {
		panic("exec: SkipTo on finished warp")
	}
	w.stack[len(w.stack)-1].pc = pc
	w.popConverged()
}

// LeaderLane returns the lowest active lane index, or -1 if none.
func (w *Warp) LeaderLane() int {
	m := w.ActiveMask()
	if m == 0 {
		return -1
	}
	return bits.TrailingZeros32(m)
}

// SpecialValue returns the value of a special register for a lane of this
// warp (exported for the offload controller's scalar dry-run that finds the
// destination stack of a candidate's first memory access, §4.2 footnote 4).
func (w *Warp) SpecialValue(s isa.Special, lane int) uint64 {
	base, perLane := w.special(s)
	return base + perLane*uint64(lane)
}

// special returns a special register as base + perLane*lane: every special
// is either uniform across the warp or counts up with the lane index.
func (w *Warp) special(s isa.Special) (base, perLane uint64) {
	wi := w.WInfo
	tid0 := wi.WarpInCTA * isa.WarpSize
	switch s {
	case isa.SpLane:
		return 0, 1
	case isa.SpTid:
		return uint64(tid0), 1
	case isa.SpCtaid:
		return uint64(wi.CtaID), 0
	case isa.SpNtid:
		return uint64(wi.NTid), 0
	case isa.SpNctaid:
		return uint64(wi.NCtaid), 0
	case isa.SpGtid:
		return uint64(wi.CtaID*wi.NTid + tid0), 1
	case isa.SpWarpid:
		return uint64(wi.WarpInCTA), 0
	}
	return 0, 0
}

// row resolves a source to its 32 lane values. Registers and immediates are
// already rows; a special is written into scratch, which the caller owns
// for the duration of the step.
func (w *Warp) row(s *isa.Src, scratch *isa.Row) *isa.Row {
	switch s.Kind {
	case isa.OpdReg:
		return &w.Regs[s.Reg]
	case isa.OpdSpecial:
		return w.specialRow(s.Sp, scratch)
	}
	return s.Row
}

func (w *Warp) specialRow(s isa.Special, row *isa.Row) *isa.Row {
	base, perLane := w.special(s)
	for l := range row {
		row[l] = base + perLane*uint64(l)
	}
	return row
}

func f32(v uint64) float32   { return math.Float32frombits(uint32(v)) }
func fbits(f float32) uint64 { return uint64(math.Float32bits(f)) }

// fres is fbits for the result of float arithmetic: a NaN becomes the one
// quiet NaN, as PTX arithmetic returns it. Which operand's payload the host
// would propagate depends on the order the compiler hands a commutative
// operation's operands to the instruction, and the loops of pureOp and the
// scalar aluOp need not get the same order.
func fres(f float32) uint64 {
	if f != f {
		return quietNaN
	}
	return fbits(f)
}

const quietNaN = 0x7fc0_0000

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// Step executes one warp-instruction over the global memory g and returns
// what happened; a global memory instruction also leaves its lines in g.
func (w *Warp) Step(g *Global) (res StepResult) {
	if len(w.stack) == 0 {
		return StepResult{Kind: StepNone, Done: true}
	}
	top := &w.stack[len(w.stack)-1]
	pc := top.pc
	if pc >= len(w.prog.Code) {
		panic(fmt.Sprintf("exec: kernel %q: pc %d fell off the end", w.Kernel.Name, pc))
	}
	d := &w.prog.Code[pc]
	mask := top.mask & w.alive
	res = StepResult{PC: pc, Op: d.Op, Dst: d.Dst, HasDst: d.HasDst, ActiveLanes: bits.OnesCount32(mask)}

	// Specials are rare (a kernel's prologue), so only they pay for
	// scratch rows.
	var sa, sb, sc *isa.Row
	if d.Special {
		var scratch [3]isa.Row
		sa, sb, sc = &scratch[0], &scratch[1], &scratch[2]
	}
	a, b, c := w.row(&d.A, sa), w.row(&d.B, sb), w.row(&d.C, sc)

	switch d.Class {
	case isa.ClassNop:
		res.Kind = StepALU
		top.pc++

	case isa.ClassBarrier:
		res.Kind = StepBarrier
		top.pc++

	case isa.ClassExit:
		res.Kind = StepExit
		w.alive &^= mask
		top.pc++

	case isa.ClassBranch:
		res.Kind = StepBranch
		taken := mask
		if d.A.Kind != isa.OpdNone {
			var nz uint32
			for l, v := range a {
				nz |= uint32(b2u(v != 0)) << l
			}
			if d.PredNeg {
				nz = ^nz
			}
			taken &= nz
		}
		fall := mask &^ taken
		switch {
		case fall == 0:
			top.pc = d.Target
		case taken == 0:
			top.pc++
		default:
			// Divergence: the current entry becomes the continuation at
			// the reconvergence point; the two paths are pushed and run
			// (taken first) until each reaches the reconvergence pc.
			rpc := w.Info.Reconv[pc]
			// Clamp reconvergence to this entry's own region end so
			// region execution (offload) cannot escape its bounds.
			if top.rpc >= 0 && rpc > top.rpc {
				rpc = top.rpc
			}
			top.pc = rpc
			w.stack = append(w.stack,
				simtEntry{pc: pc + 1, rpc: rpc, mask: fall},
				simtEntry{pc: d.Target, rpc: rpc, mask: taken})
		}

	case isa.ClassALU:
		// Pure ops are total (no traps), so all 32 lanes are computed and
		// the inactive ones discarded: straight into the destination under
		// a full mask, through a scratch row otherwise.
		res.Kind = StepALU
		dst := &w.Regs[d.Dst]
		if mask == fullMask {
			pureOp(d, dst, a, b, c)
		} else {
			var tmp isa.Row
			pureOp(d, &tmp, a, b, c)
			for l := range dst {
				if mask&(1<<l) != 0 {
					dst[l] = tmp[l]
				}
			}
		}
		top.pc++

	case isa.ClassMem:
		// Memory ops touch the active lanes only, in ascending lane order:
		// atomics return the values and colliding stores resolve exactly as
		// a lane-by-lane interpreter's would. A page is looked up once per
		// run of lanes on it. The opcode is settled outside the lane loops:
		// with it inside, ld and st measure 10-20 % slower
		// (BenchmarkWarpStep).
		res.Kind = StepMem
		g.coalesce(a, d.Imm, mask)
		cur, p := ^uint64(0), (*mem.Page)(nil) // no address is on page ^0
		switch d.Op {
		case isa.OpLdGlobal:
			dst := &w.Regs[d.Dst]
			for m := mask; m != 0; m &= m - 1 {
				lane := bits.TrailingZeros32(m) % isa.WarpSize
				addr := g.Addrs[lane]
				if addr/mem.PageBytes != cur {
					cur, p = addr/mem.PageBytes, g.Mem.LoadPage(addr)
				}
				dst[lane] = uint64(p[addr%mem.PageBytes/4])
			}
		case isa.OpStGlobal:
			for m := mask; m != 0; m &= m - 1 {
				lane := bits.TrailingZeros32(m) % isa.WarpSize
				addr := g.Addrs[lane]
				if addr/mem.PageBytes != cur {
					cur, p = addr/mem.PageBytes, g.Mem.StorePage(addr)
				}
				p[addr%mem.PageBytes/4] = uint32(b[lane])
			}
		case isa.OpAtomAdd:
			dst := &w.Regs[d.Dst]
			for m := mask; m != 0; m &= m - 1 {
				lane := bits.TrailingZeros32(m) % isa.WarpSize
				addr := g.Addrs[lane]
				if addr/mem.PageBytes != cur {
					cur, p = addr/mem.PageBytes, g.Mem.StorePage(addr)
				}
				i := addr % mem.PageBytes / 4
				old := p[i]
				p[i] = old + uint32(b[lane])
				dst[lane] = uint64(old)
			}
		}
		top.pc++

	case isa.ClassShared:
		res.Kind = StepShared
		dst := &w.Regs[d.Dst]
		for m := mask; m != 0; m &= m - 1 {
			lane := bits.TrailingZeros32(m) % isa.WarpSize
			addr := (a[lane] + d.Imm) / isa.WordBytes
			if addr >= uint64(len(w.Shared)) {
				panic(fmt.Sprintf("exec: kernel %q pc %d: shared access %d out of %d words",
					w.Kernel.Name, pc, addr, len(w.Shared)))
			}
			if d.Op == isa.OpLdShared {
				dst[lane] = uint64(w.Shared[addr])
			} else {
				w.Shared[addr] = uint32(b[lane])
			}
		}
		top.pc++
	}

	w.popConverged()
	res.Done = len(w.stack) == 0
	return res
}

const fullMask = 1<<isa.WarpSize - 1

// cmpWants encodes a comparison as the outcomes it accepts among
// less / equal / greater / unordered, each 0 or 1.
func cmpWants(c isa.Cmp) (lt, eq, gt, un uint64) {
	switch c {
	case isa.CmpEQ:
		return 0, 1, 0, 0
	case isa.CmpNE:
		return 1, 0, 1, 1
	case isa.CmpLT:
		return 1, 0, 0, 0
	case isa.CmpLE:
		return 1, 1, 0, 0
	case isa.CmpGT:
		return 0, 0, 1, 0
	case isa.CmpGE:
		return 0, 1, 1, 0
	}
	return 0, 0, 0, 0
}

// Compare computes one lane of a Setp (signed) or FSetp (float32, op ==
// isa.OpFSetp): 1 when a cmp b holds, else 0 — the value Step writes,
// exported for scalar dry-run evaluation.
func Compare(op isa.Op, cmp isa.Cmp, a, b uint64) uint64 {
	lt, eq, gt, un := cmpWants(cmp)
	if op == isa.OpFSetp {
		x, y := f32(a), f32(b)
		return b2u(x < y)&lt | b2u(x == y)&eq | b2u(x > y)&gt | b2u(x != x || y != y)&un
	}
	x, y := int64(a), int64(b)
	return b2u(x < y)&lt | b2u(x == y)&eq | b2u(x > y)&gt
}

// pureOp computes a register-only instruction for all 32 lanes into dst,
// which may be one of the sources: lane l of dst depends on lane l of the
// sources only, and is written after they are read.
func pureOp(d *isa.Decoded, dstRow, aRow, bRow, cRow *isa.Row) {
	// Sliced once: indexing through the array pointers would repeat their
	// nil checks on every lane.
	dst, a, b, c := dstRow[:], aRow[:], bRow[:], cRow[:]
	switch d.Op {
	case isa.OpSetp:
		lt, eq, gt, _ := cmpWants(d.Cmp)
		for l := range dst {
			x, y := int64(a[l]), int64(b[l])
			dst[l] = b2u(x < y)&lt | b2u(x == y)&eq | b2u(x > y)&gt
		}
	case isa.OpFSetp:
		lt, eq, gt, un := cmpWants(d.Cmp)
		for l := range dst {
			x, y := f32(a[l]), f32(b[l])
			dst[l] = b2u(x < y)&lt | b2u(x == y)&eq | b2u(x > y)&gt | b2u(x != x || y != y)&un
		}
	case isa.OpMov:
		*dstRow = *aRow
	case isa.OpAdd:
		for l := range dst {
			dst[l] = a[l] + b[l]
		}
	case isa.OpSub:
		for l := range dst {
			dst[l] = a[l] - b[l]
		}
	case isa.OpMul:
		for l := range dst {
			dst[l] = a[l] * b[l]
		}
	case isa.OpAnd:
		for l := range dst {
			dst[l] = a[l] & b[l]
		}
	case isa.OpOr:
		for l := range dst {
			dst[l] = a[l] | b[l]
		}
	case isa.OpXor:
		for l := range dst {
			dst[l] = a[l] ^ b[l]
		}
	case isa.OpShl:
		for l := range dst {
			dst[l] = a[l] << (b[l] & 63)
		}
	case isa.OpShr:
		for l := range dst {
			dst[l] = a[l] >> (b[l] & 63)
		}
	case isa.OpFAdd:
		for l := range dst {
			dst[l] = fres(f32(a[l]) + f32(b[l]))
		}
	case isa.OpFSub:
		for l := range dst {
			dst[l] = fres(f32(a[l]) - f32(b[l]))
		}
	case isa.OpFMul:
		for l := range dst {
			dst[l] = fres(f32(a[l]) * f32(b[l]))
		}
	case isa.OpFMA:
		for l := range dst {
			dst[l] = fres(f32(a[l])*f32(b[l]) + f32(c[l]))
		}
	case isa.OpSelp:
		for l := range dst {
			v := b[l]
			if c[l] != 0 {
				v = a[l]
			}
			dst[l] = v
		}
	default: // the rare opcodes share the scalar definition
		for l := range dst {
			dst[l] = aluOp(d.Op, a[l], b[l], c[l])
		}
	}
}

// ALUOp computes the pure-ALU result for op given operand values — the
// same semantics Step applies, exported for scalar dry-run evaluation.
func ALUOp(op isa.Op, a, b, c uint64) uint64 { return aluOp(op, a, b, c) }

func aluOp(op isa.Op, a, b, c uint64) uint64 {
	switch op {
	case isa.OpMov:
		return a
	case isa.OpAdd:
		return a + b
	case isa.OpSub:
		return a - b
	case isa.OpMul:
		return a * b
	case isa.OpDiv:
		if int64(b) == 0 {
			return 0
		}
		return uint64(int64(a) / int64(b))
	case isa.OpRem:
		if int64(b) == 0 {
			return 0
		}
		return uint64(int64(a) % int64(b))
	case isa.OpMin:
		if int64(a) < int64(b) {
			return a
		}
		return b
	case isa.OpMax:
		if int64(a) > int64(b) {
			return a
		}
		return b
	case isa.OpAnd:
		return a & b
	case isa.OpOr:
		return a | b
	case isa.OpXor:
		return a ^ b
	case isa.OpShl:
		return a << (b & 63)
	case isa.OpShr:
		return a >> (b & 63)
	case isa.OpFAdd:
		return fres(f32(a) + f32(b))
	case isa.OpFSub:
		return fres(f32(a) - f32(b))
	case isa.OpFMul:
		return fres(f32(a) * f32(b))
	case isa.OpFDiv:
		return fres(f32(a) / f32(b))
	case isa.OpFMA:
		return fres(f32(a)*f32(b) + f32(c))
	case isa.OpFNeg:
		return fbits(-f32(a))
	case isa.OpCvtIF:
		return fbits(float32(int32(a)))
	case isa.OpCvtFI:
		return uint64(uint32(int32(f32(a))))
	case isa.OpSelp:
		if c != 0 {
			return a
		}
		return b
	}
	panic(fmt.Sprintf("exec: unhandled ALU op %v", op))
}
