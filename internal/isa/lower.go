package isa

// Row holds one 64-bit value per lane: a register, or an instruction source
// resolved for a whole warp.
type Row = [WarpSize]uint64

// Class is the interpreter's dispatch class of an opcode: what one
// warp-instruction does, decided once at lowering time.
type Class uint8

// Dispatch classes.
const (
	ClassALU     Class = iota // pure register op, setp included: Dst = f(A, B, C) per lane
	ClassMem                  // global load / store / atomic
	ClassShared               // shared-memory load / store
	ClassBranch               // conditional or unconditional branch
	ClassBarrier              // CTA-wide barrier
	ClassExit                 // active lanes terminate
	ClassNop
)

// Lat is the pipeline-occupancy class the timing model charges an
// instruction; the model maps each class to a cycle count.
type Lat uint8

// Latency classes.
const (
	LatALU Lat = iota
	LatFP
	LatDiv
	LatShared
	LatMem
	NumLat
)

// Src is a pre-decoded instruction source. A register names its row in the
// warp's register file; an immediate or absent operand carries its row
// ready-made (the value broadcast to every lane, zero when absent); a
// special is computed by the warp from its position in the grid.
type Src struct {
	Kind OperandKind
	Reg  Reg
	Sp   Special
	Row  *Row // OpdImm and OpdNone only; shared, read-only
}

// Decoded is one instruction lowered for the interpreter and the issue
// stage: everything either needs per warp-instruction, with no operand or
// opcode left to classify.
type Decoded struct {
	Op      Op
	Class   Class
	Lat     Lat
	Cmp     Cmp
	Dst     Reg
	HasDst  bool
	PredNeg bool
	Special bool // some source is OpdSpecial
	A, B, C Src
	Imm     uint64 // address offset of memory ops
	Target  int
	Regs    uint64 // SrcRegs | DstRegs, what the scoreboard checks
}

// Program is a kernel's lowered form, indexed by pc like Kernel.Instrs.
type Program struct {
	Code []Decoded
}

// Program returns the kernel's lowered form, building it on first use. A
// kernel needs no constructor for this — struct literals work — and may be
// shared by concurrent simulations: racing first users each lower it and
// one result is published. The kernel must not be mutated afterwards.
func (k *Kernel) Program() *Program {
	if p := k.program.Load(); p != nil {
		return p
	}
	k.program.CompareAndSwap(nil, lower(k))
	return k.program.Load()
}

func lower(k *Kernel) *Program {
	imms := map[int64]*Row{}
	imm := func(v int64) *Row {
		r := imms[v]
		if r == nil {
			r = new(Row)
			for l := range r {
				r[l] = uint64(v)
			}
			imms[v] = r
		}
		return r
	}
	src := func(o Operand) Src {
		switch o.Kind {
		case OpdReg:
			return Src{Kind: OpdReg, Reg: o.Reg}
		case OpdImm:
			return Src{Kind: OpdImm, Row: imm(o.Imm)}
		case OpdSpecial:
			return Src{Kind: OpdSpecial, Sp: o.Sp}
		}
		return Src{Row: imm(0)}
	}
	p := &Program{Code: make([]Decoded, len(k.Instrs))}
	for pc := range k.Instrs {
		in := &k.Instrs[pc]
		p.Code[pc] = Decoded{
			Op: in.Op, Class: in.Op.class(), Lat: in.Op.lat(), Cmp: in.Cmp,
			Dst: in.Dst, HasDst: in.HasDst, PredNeg: in.PredNeg,
			Special: in.A.Kind == OpdSpecial || in.B.Kind == OpdSpecial || in.C.Kind == OpdSpecial,
			A:       src(in.A), B: src(in.B), C: src(in.C),
			Imm: uint64(in.Imm), Target: in.Target,
			Regs: in.SrcRegs() | in.DstRegs(),
		}
	}
	return p
}

func (o Op) class() Class {
	switch o {
	case OpNop:
		return ClassNop
	case OpLdGlobal, OpStGlobal, OpAtomAdd:
		return ClassMem
	case OpLdShared, OpStShared:
		return ClassShared
	case OpBra:
		return ClassBranch
	case OpBar:
		return ClassBarrier
	case OpExit:
		return ClassExit
	}
	return ClassALU
}

func (o Op) lat() Lat {
	switch {
	case o.IsMemory():
		return LatMem
	case o.IsShared():
		return LatShared
	case o == OpDiv || o == OpRem || o == OpFDiv:
		return LatDiv
	case o.IsFloat():
		return LatFP
	}
	return LatALU
}
