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
// always exact, and timing policies can never corrupt program results.
package exec

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/cfgx"
	"repro/internal/isa"
)

// Memory is the global-memory interface the interpreter needs. Words are
// little-endian 32-bit; addresses are byte addresses.
type Memory interface {
	Load4(addr uint64) uint32
	Store4(addr uint64, v uint32)
	// AtomicAdd4 adds v to the word at addr and returns the old value.
	AtomicAdd4(addr uint64, v uint32) uint32
}

// WarpInfo locates a warp within its grid.
type WarpInfo struct {
	CtaID     int // CTA index within the grid
	WarpInCTA int // warp index within the CTA
	NTid      int // threads per CTA
	NCtaid    int // CTAs in the grid
}

// Access describes one lane's global-memory access within a step.
type Access struct {
	Lane  int
	Addr  uint64
	Store bool
}

// StepKind classifies what a Step did, for the timing layer.
type StepKind uint8

// Step kinds.
const (
	StepALU StepKind = iota
	StepMem          // global load/store/atomic: see Accesses
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
	// Accesses holds per-active-lane global accesses for StepMem. The
	// slice is reused across steps; callers must not retain it.
	Accesses []Access
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
	Mem    Memory
	Shared []uint32 // CTA shared memory, shared across the CTA's warps

	// Regs[r][lane] is the architectural register file.
	Regs [][isa.WarpSize]uint64

	alive    uint32 // lanes that have not exited
	stack    []simtEntry
	accesses []Access
}

// NewWarp creates a warp ready to execute from pc 0 with all lanes whose
// global thread index is inside the CTA's thread count active.
func NewWarp(k *isa.Kernel, info *cfgx.Info, wi WarpInfo, mem Memory, shared []uint32, params []uint64) *Warp {
	w := new(Warp)
	w.Reset(k, info, wi, mem, shared, params)
	return w
}

// Reset makes w the warp NewWarp would return for the same arguments,
// reusing w's register file, SIMT stack and access buffer. A timing model
// that retires and dispatches warps continuously recycles them through it.
func (w *Warp) Reset(k *isa.Kernel, info *cfgx.Info, wi WarpInfo, mem Memory, shared []uint32, params []uint64) {
	var mask uint32
	base := wi.WarpInCTA * isa.WarpSize
	for lane := 0; lane < isa.WarpSize; lane++ {
		if base+lane < wi.NTid {
			mask |= 1 << lane
		}
	}
	w.init(k, info, wi, mem, shared, simtEntry{pc: 0, rpc: -1, mask: mask})
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
func NewRegionWarp(k *isa.Kernel, info *cfgx.Info, wi WarpInfo, mem Memory, mask uint32,
	startPC, endPC int, liveIn uint64, regs [][isa.WarpSize]uint64) *Warp {
	w := new(Warp)
	w.ResetRegion(k, info, wi, mem, mask, startPC, endPC, liveIn, regs)
	return w
}

// ResetRegion is Reset for the NewRegionWarp shape.
func (w *Warp) ResetRegion(k *isa.Kernel, info *cfgx.Info, wi WarpInfo, mem Memory, mask uint32,
	startPC, endPC int, liveIn uint64, regs [][isa.WarpSize]uint64) {
	w.init(k, info, wi, mem, nil, simtEntry{pc: startPC, rpc: endPC, mask: mask})
	for r := 0; r < k.NumRegs; r++ {
		if liveIn&(1<<r) != 0 {
			w.Regs[r] = regs[r]
		}
	}
}

// init is the one place a warp's state is established, fresh or recycled:
// every field is assigned, the register file reads zero, and only backing
// storage survives from w's previous use.
func (w *Warp) init(k *isa.Kernel, info *cfgx.Info, wi WarpInfo, mem Memory, shared []uint32, base simtEntry) {
	regs := w.Regs
	if cap(regs) < k.NumRegs {
		regs = make([][isa.WarpSize]uint64, k.NumRegs)
	} else {
		regs = regs[:k.NumRegs]
		clear(regs)
	}
	*w = Warp{
		Kernel:   k,
		Info:     info,
		WInfo:    wi,
		Mem:      mem,
		Shared:   shared,
		Regs:     regs,
		alive:    base.mask,
		stack:    append(w.stack[:0], base),
		accesses: w.accesses[:0],
	}
}

// Done reports whether the warp has finished (all lanes exited or the
// region completed).
func (w *Warp) Done() bool {
	w.popConverged()
	return len(w.stack) == 0
}

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

// PeekOp returns the opcode about to execute (OpNop if done).
func (w *Warp) PeekOp() isa.Op {
	w.popConverged()
	if len(w.stack) == 0 {
		return isa.OpNop
	}
	return w.Kernel.Instrs[w.stack[len(w.stack)-1].pc].Op
}

// NextInstr returns the instruction about to execute. Valid only if !Done.
// It returns a pointer into the kernel's instruction slice (callers must
// not mutate it) so the per-issue hot path copies nothing.
func (w *Warp) NextInstr() *isa.Instr {
	return &w.Kernel.Instrs[w.PC()]
}

// SkipTo repositions the current execution point — used by the main GPU SM
// to jump past an offloaded region once the offload acknowledgment (with
// live-out registers) arrives.
func (w *Warp) SkipTo(pc int) {
	if len(w.stack) == 0 {
		panic("exec: SkipTo on finished warp")
	}
	w.stack[len(w.stack)-1].pc = pc
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
func (w *Warp) SpecialValue(s isa.Special, lane int) uint64 { return w.special(s, lane) }

func (w *Warp) special(s isa.Special, lane int) uint64 {
	wi := w.WInfo
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

func (w *Warp) eval(o isa.Operand, lane int) uint64 {
	switch o.Kind {
	case isa.OpdReg:
		return w.Regs[o.Reg][lane]
	case isa.OpdImm:
		return uint64(o.Imm)
	case isa.OpdSpecial:
		return w.special(o.Sp, lane)
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

func f32(v uint64) float32   { return math.Float32frombits(uint32(v)) }
func fbits(f float32) uint64 { return uint64(math.Float32bits(f)) }

// Step executes one warp-instruction and returns what happened.
func (w *Warp) Step() StepResult {
	w.popConverged()
	if len(w.stack) == 0 {
		return StepResult{Kind: StepNone, Done: true}
	}
	top := &w.stack[len(w.stack)-1]
	pc := top.pc
	if pc >= len(w.Kernel.Instrs) {
		panic(fmt.Sprintf("exec: kernel %q: pc %d fell off the end", w.Kernel.Name, pc))
	}
	in := &w.Kernel.Instrs[pc]
	mask := top.mask & w.alive
	active := bits.OnesCount32(mask)
	res := StepResult{PC: pc, Op: in.Op, Dst: in.Dst, HasDst: in.HasDst, ActiveLanes: active}

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
		w.popConverged()
		res.Done = len(w.stack) == 0

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
				p := w.eval(in.A, lane) != 0
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
				v = cmpInt(in.Cmp, int64(w.eval(in.A, lane)), int64(w.eval(in.B, lane)))
			} else {
				v = cmpFloat(in.Cmp, f32(w.eval(in.A, lane)), f32(w.eval(in.B, lane)))
			}
			if v {
				w.Regs[in.Dst][lane] = 1
			} else {
				w.Regs[in.Dst][lane] = 0
			}
		}
		top.pc++

	case isa.OpLdGlobal, isa.OpStGlobal, isa.OpAtomAdd:
		res.Kind = StepMem
		if w.accesses == nil {
			// Full capacity at once: a step records at most one access per
			// lane, and the buffer lives as long as the (recycled) warp.
			w.accesses = make([]Access, 0, isa.WarpSize)
		}
		w.accesses = w.accesses[:0]
		for lane := 0; lane < isa.WarpSize; lane++ {
			if mask&(1<<lane) == 0 {
				continue
			}
			addr := w.eval(in.A, lane) + uint64(in.Imm)
			switch in.Op {
			case isa.OpLdGlobal:
				w.Regs[in.Dst][lane] = uint64(w.Mem.Load4(addr))
				w.accesses = append(w.accesses, Access{Lane: lane, Addr: addr})
			case isa.OpStGlobal:
				w.Mem.Store4(addr, uint32(w.eval(in.B, lane)))
				w.accesses = append(w.accesses, Access{Lane: lane, Addr: addr, Store: true})
			case isa.OpAtomAdd:
				old := w.Mem.AtomicAdd4(addr, uint32(w.eval(in.B, lane)))
				w.Regs[in.Dst][lane] = uint64(old)
				w.accesses = append(w.accesses, Access{Lane: lane, Addr: addr, Store: true})
			}
		}
		res.Accesses = w.accesses
		top.pc++

	case isa.OpLdShared, isa.OpStShared:
		res.Kind = StepShared
		for lane := 0; lane < isa.WarpSize; lane++ {
			if mask&(1<<lane) == 0 {
				continue
			}
			addr := (w.eval(in.A, lane) + uint64(in.Imm)) / isa.WordBytes
			if addr >= uint64(len(w.Shared)) {
				panic(fmt.Sprintf("exec: kernel %q pc %d: shared access %d out of %d words",
					w.Kernel.Name, pc, addr, len(w.Shared)))
			}
			if in.Op == isa.OpLdShared {
				w.Regs[in.Dst][lane] = uint64(w.Shared[addr])
			} else {
				w.Shared[addr] = uint32(w.eval(in.B, lane))
			}
		}
		top.pc++

	default: // ALU
		res.Kind = StepALU
		for lane := 0; lane < isa.WarpSize; lane++ {
			if mask&(1<<lane) == 0 {
				continue
			}
			a := w.eval(in.A, lane)
			var b, c uint64
			if in.B.Kind != isa.OpdNone {
				b = w.eval(in.B, lane)
			}
			if in.C.Kind != isa.OpdNone {
				c = w.eval(in.C, lane)
			}
			w.Regs[in.Dst][lane] = aluOp(in.Op, a, b, c)
		}
		top.pc++
	}

	w.popConverged()
	if len(w.stack) == 0 {
		res.Done = true
	}
	return res
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
		return fbits(f32(a) + f32(b))
	case isa.OpFSub:
		return fbits(f32(a) - f32(b))
	case isa.OpFMul:
		return fbits(f32(a) * f32(b))
	case isa.OpFDiv:
		return fbits(f32(a) / f32(b))
	case isa.OpFMA:
		return fbits(f32(a)*f32(b) + f32(c))
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
