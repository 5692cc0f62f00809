// Package isa defines the miniature PTX-like instruction set used by the
// TOM reproduction: a register machine executed in lock-step by 32-lane
// warps. Kernels written in this ISA stand in for the CUDA/PTX workloads the
// paper evaluates; the compiler pass (internal/compiler) performs the
// paper's offload-candidate selection directly on this representation.
//
// Design constraints that the rest of the system relies on:
//
//   - A kernel may use at most MaxRegs (64) general registers, so register
//     sets fit in a uint64 bitmask (liveness, scoreboards, live-in transfer).
//   - All memory accesses move 4-byte words; addresses are 64-bit.
//   - Floating-point instructions operate on the float32 interpretation of
//     a register's low 32 bits.
//   - Control flow uses explicit instruction-index targets after assembly;
//     divergence is handled by the executor's SIMT reconvergence stack.
package isa

import (
	"fmt"
	"sync/atomic"
)

// MaxRegs is the maximum number of general registers a kernel may use.
// Keeping it at 64 lets register sets be represented as uint64 bitmasks
// throughout the compiler and the timing simulator.
const MaxRegs = 64

// WarpSize is the number of threads executed in lock-step, matching the
// paper's SW = 32.
const WarpSize = 32

// WordBytes is the size of every register and memory word.
const WordBytes = 4

// Reg names a general-purpose register (r0 .. r63).
type Reg uint8

// Op enumerates instruction opcodes.
type Op uint8

// Opcode values. Arithmetic ops treat registers as unsigned 64-bit values
// unless prefixed with F (float32 on the low 32 bits) or documented as
// signed (Div, Rem, Min, Max use signed interpretation of the low 32 bits).
// Float arithmetic (FAdd, FSub, FMul, FDiv, FMA) returns the one quiet NaN
// 0x7fc00000 for any NaN result, like PTX: NaN payloads do not propagate.
const (
	OpNop      Op = iota
	OpMov         // Dst = A
	OpAdd         // Dst = A + B
	OpSub         // Dst = A - B
	OpMul         // Dst = A * B
	OpDiv         // Dst = A / B (signed 32-bit; B==0 yields 0)
	OpRem         // Dst = A % B (signed 32-bit; B==0 yields 0)
	OpMin         // Dst = min(A, B) (signed 32-bit)
	OpMax         // Dst = max(A, B) (signed 32-bit)
	OpAnd         // Dst = A & B
	OpOr          // Dst = A | B
	OpXor         // Dst = A ^ B
	OpShl         // Dst = A << (B & 63)
	OpShr         // Dst = A >> (B & 63) (logical)
	OpFAdd        // float32
	OpFSub        // float32
	OpFMul        // float32
	OpFDiv        // float32 (B==0 yields +Inf per IEEE)
	OpFMA         // Dst = A*B + C (float32)
	OpFNeg        // Dst = -A (float32)
	OpCvtIF       // Dst = float32(int32(A))
	OpCvtFI       // Dst = int32(float32bits(A))
	OpSetp        // Dst = 1 if Cmp(A, B) else 0 (signed 32-bit compare)
	OpFSetp       // Dst = 1 if Cmp(A, B) else 0 (float32 compare)
	OpSelp        // Dst = A if C != 0 else B
	OpLdGlobal    // Dst = mem32[A + Imm]
	OpStGlobal    // mem32[A + Imm] = B
	OpLdShared    // Dst = shared32[A + Imm]
	OpStShared    // shared32[A + Imm] = B
	OpAtomAdd     // Dst = old mem32[A + Imm]; mem32[A+Imm] += B (global, atomic)
	OpBra         // if predicate (A, optionally negated) then goto Target
	OpBar         // CTA-wide barrier
	OpExit        // thread terminates
	opCount
)

var opNames = [...]string{
	OpNop: "nop", OpMov: "mov", OpAdd: "add", OpSub: "sub", OpMul: "mul",
	OpDiv: "div", OpRem: "rem", OpMin: "min", OpMax: "max", OpAnd: "and",
	OpOr: "or", OpXor: "xor", OpShl: "shl", OpShr: "shr",
	OpFAdd: "fadd", OpFSub: "fsub", OpFMul: "fmul", OpFDiv: "fdiv",
	OpFMA: "fma", OpFNeg: "fneg", OpCvtIF: "cvt.if", OpCvtFI: "cvt.fi",
	OpSetp: "setp", OpFSetp: "fsetp", OpSelp: "selp",
	OpLdGlobal: "ld.global", OpStGlobal: "st.global",
	OpLdShared: "ld.shared", OpStShared: "st.shared",
	OpAtomAdd: "atom.add", OpBra: "bra", OpBar: "bar.sync", OpExit: "exit",
}

// String returns the mnemonic for the opcode.
func (o Op) String() string {
	if int(o) < len(opNames) && opNames[o] != "" {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// IsMemory reports whether the opcode accesses global memory (loads, stores
// and atomics). Shared-memory accesses are not "memory" in the paper's
// bandwidth cost model and are reported separately.
func (o Op) IsMemory() bool {
	switch o {
	case OpLdGlobal, OpStGlobal, OpAtomAdd:
		return true
	}
	return false
}

// IsLoad reports whether the opcode reads global memory into a register.
func (o Op) IsLoad() bool { return o == OpLdGlobal }

// IsStore reports whether the opcode writes global memory.
func (o Op) IsStore() bool { return o == OpStGlobal }

// IsShared reports whether the opcode accesses on-chip shared memory.
func (o Op) IsShared() bool { return o == OpLdShared || o == OpStShared }

// IsFloat reports whether the opcode's ALU work is floating point. The
// timing model charges FP instructions a longer pipeline occupancy.
func (o Op) IsFloat() bool {
	switch o {
	case OpFAdd, OpFSub, OpFMul, OpFDiv, OpFMA, OpFNeg, OpFSetp, OpCvtIF, OpCvtFI:
		return true
	}
	return false
}

// Cmp enumerates comparison operators for OpSetp / OpFSetp.
type Cmp uint8

// Comparison operators.
const (
	CmpEQ Cmp = iota
	CmpNE
	CmpLT
	CmpLE
	CmpGT
	CmpGE
)

var cmpNames = [...]string{"eq", "ne", "lt", "le", "gt", "ge"}

// String returns the PTX-style suffix for the comparison.
func (c Cmp) String() string {
	if int(c) < len(cmpNames) {
		return cmpNames[c]
	}
	return fmt.Sprintf("cmp(%d)", uint8(c))
}

// Special enumerates special read-only values available to every thread,
// mirroring PTX's %tid/%ctaid/%ntid special registers (1-D grids).
type Special uint8

// Special register values.
const (
	SpNone   Special = iota
	SpLane           // lane index within the warp [0, 32)
	SpTid            // thread index within the CTA
	SpCtaid          // CTA index within the grid
	SpNtid           // threads per CTA
	SpNctaid         // CTAs in the grid
	SpGtid           // global thread id = Ctaid*Ntid + Tid
	SpWarpid         // warp index within the CTA
)

var spNames = [...]string{"%none", "%lane", "%tid", "%ctaid", "%ntid", "%nctaid", "%gtid", "%warpid"}

// String returns the PTX-style name of the special value.
func (s Special) String() string {
	if int(s) < len(spNames) {
		return spNames[s]
	}
	return fmt.Sprintf("%%sp(%d)", uint8(s))
}

// OperandKind discriminates Operand.
type OperandKind uint8

// Operand kinds.
const (
	OpdNone OperandKind = iota
	OpdReg
	OpdImm
	OpdSpecial
)

// Operand is an instruction source: a register, an immediate, a special
// value, or absent.
type Operand struct {
	Kind OperandKind
	Reg  Reg
	Imm  int64
	Sp   Special
}

// R returns a register operand.
func R(r Reg) Operand { return Operand{Kind: OpdReg, Reg: r} }

// Imm returns an immediate operand.
func Imm(v int64) Operand { return Operand{Kind: OpdImm, Imm: v} }

// ImmF returns an immediate operand holding the bit pattern of a float32.
func ImmF(v float32) Operand { return Operand{Kind: OpdImm, Imm: int64(f32bits(v))} }

// Sp returns a special-value operand.
func Sp(s Special) Operand { return Operand{Kind: OpdSpecial, Sp: s} }

// String formats the operand in assembly syntax.
func (o Operand) String() string {
	switch o.Kind {
	case OpdReg:
		return fmt.Sprintf("r%d", o.Reg)
	case OpdImm:
		return fmt.Sprintf("%d", o.Imm)
	case OpdSpecial:
		return o.Sp.String()
	}
	return "_"
}

// Instr is a single instruction. Field use by opcode:
//
//   - ALU ops: Dst, A, B (and C for FMA/Selp).
//   - Setp/FSetp: Dst, Cmp, A, B.
//   - Ld*: Dst = [A + Imm].    St*: [A + Imm] = B.
//   - AtomAdd: Dst = fetch-add([A+Imm], B).
//   - Bra: conditional on A (PredNeg negates; A absent = unconditional),
//     jumps to Target (instruction index).
//   - Bar, Exit, Nop: no operands.
type Instr struct {
	Op      Op
	Cmp     Cmp
	Dst     Reg
	HasDst  bool
	A, B, C Operand
	Imm     int64 // address offset for memory ops
	Target  int   // branch target (instruction index)
	PredNeg bool  // negate branch predicate
}

// String formats the instruction in assembly-like syntax.
func (in Instr) String() string {
	switch in.Op {
	case OpNop, OpBar, OpExit:
		return in.Op.String()
	case OpBra:
		if in.A.Kind == OpdNone {
			return fmt.Sprintf("bra @%d", in.Target)
		}
		neg := ""
		if in.PredNeg {
			neg = "!"
		}
		return fmt.Sprintf("bra %s%s, @%d", neg, in.A, in.Target)
	case OpSetp, OpFSetp:
		return fmt.Sprintf("%s.%s r%d, %s, %s", in.Op, in.Cmp, in.Dst, in.A, in.B)
	case OpLdGlobal, OpLdShared:
		return fmt.Sprintf("%s r%d, [%s%+d]", in.Op, in.Dst, in.A, in.Imm)
	case OpStGlobal, OpStShared:
		return fmt.Sprintf("%s [%s%+d], %s", in.Op, in.A, in.Imm, in.B)
	case OpAtomAdd:
		return fmt.Sprintf("%s r%d, [%s%+d], %s", in.Op, in.Dst, in.A, in.Imm, in.B)
	case OpFMA, OpSelp:
		return fmt.Sprintf("%s r%d, %s, %s, %s", in.Op, in.Dst, in.A, in.B, in.C)
	case OpMov, OpFNeg, OpCvtIF, OpCvtFI:
		return fmt.Sprintf("%s r%d, %s", in.Op, in.Dst, in.A)
	default:
		return fmt.Sprintf("%s r%d, %s, %s", in.Op, in.Dst, in.A, in.B)
	}
}

// SrcRegs returns the bitmask of general registers the instruction reads.
func (in Instr) SrcRegs() uint64 {
	var m uint64
	for _, o := range [...]Operand{in.A, in.B, in.C} {
		if o.Kind == OpdReg {
			m |= 1 << o.Reg
		}
	}
	return m
}

// DstRegs returns the bitmask of general registers the instruction writes.
func (in Instr) DstRegs() uint64 {
	if in.HasDst {
		return 1 << in.Dst
	}
	return 0
}

// Kernel is an assembled program plus its static metadata.
type Kernel struct {
	Name string
	// Instrs is the instruction sequence; branch targets index into it.
	Instrs []Instr
	// NumRegs is the number of general registers used (registers are
	// r0 .. NumRegs-1). Kernel parameters occupy r0 .. NumParams-1 at
	// launch.
	NumRegs   int
	NumParams int
	// SharedBytes is the CTA shared-memory allocation.
	SharedBytes int
	// Labels maps label names to instruction indices (populated by the
	// builder/assembler; informational).
	Labels map[string]int

	program atomic.Pointer[Program] // see Program()
}

// Validate checks structural invariants: register bounds, branch targets in
// range, presence of a terminating Exit, and operand well-formedness.
func (k *Kernel) Validate() error {
	if k.NumRegs < 1 || k.NumRegs > MaxRegs {
		return fmt.Errorf("isa: kernel %q: NumRegs %d out of range [1,%d]", k.Name, k.NumRegs, MaxRegs)
	}
	if k.NumParams > k.NumRegs {
		return fmt.Errorf("isa: kernel %q: NumParams %d exceeds NumRegs %d", k.Name, k.NumParams, k.NumRegs)
	}
	if len(k.Instrs) == 0 {
		return fmt.Errorf("isa: kernel %q: empty instruction list", k.Name)
	}
	sawExit := false
	checkOpd := func(i int, o Operand) error {
		if o.Kind == OpdReg && int(o.Reg) >= k.NumRegs {
			return fmt.Errorf("isa: kernel %q: instr %d (%s): register r%d out of range", k.Name, i, k.Instrs[i], o.Reg)
		}
		return nil
	}
	for i, in := range k.Instrs {
		if in.Op >= opCount {
			return fmt.Errorf("isa: kernel %q: instr %d: bad opcode %d", k.Name, i, in.Op)
		}
		if in.HasDst && int(in.Dst) >= k.NumRegs {
			return fmt.Errorf("isa: kernel %q: instr %d (%s): dst r%d out of range", k.Name, i, in, in.Dst)
		}
		for _, o := range [...]Operand{in.A, in.B, in.C} {
			if err := checkOpd(i, o); err != nil {
				return err
			}
		}
		if in.Op == OpBra {
			if in.Target < 0 || in.Target >= len(k.Instrs) {
				return fmt.Errorf("isa: kernel %q: instr %d: branch target %d out of range", k.Name, i, in.Target)
			}
		}
		if in.Op == OpExit {
			sawExit = true
		}
		if (in.Op == OpLdShared || in.Op == OpStShared) && k.SharedBytes == 0 {
			return fmt.Errorf("isa: kernel %q: instr %d uses shared memory but SharedBytes is 0", k.Name, i)
		}
	}
	if !sawExit {
		return fmt.Errorf("isa: kernel %q: no exit instruction", k.Name)
	}
	return nil
}

// CountOps returns the number of instructions matching pred.
func (k *Kernel) CountOps(pred func(Op) bool) int {
	n := 0
	for _, in := range k.Instrs {
		if pred(in.Op) {
			n++
		}
	}
	return n
}
