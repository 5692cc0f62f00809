package isa

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"
)

func TestOpStringCoverage(t *testing.T) {
	for op := OpNop; op < opCount; op++ {
		s := op.String()
		if s == "" || strings.HasPrefix(s, "op(") {
			t.Errorf("opcode %d has no mnemonic", op)
		}
	}
}

func TestOpClassification(t *testing.T) {
	cases := []struct {
		op                   Op
		mem, load, store, sh bool
	}{
		{OpLdGlobal, true, true, false, false},
		{OpStGlobal, true, false, true, false},
		{OpAtomAdd, true, false, false, false},
		{OpLdShared, false, false, false, true},
		{OpStShared, false, false, false, true},
		{OpAdd, false, false, false, false},
		{OpBra, false, false, false, false},
	}
	for _, c := range cases {
		if c.op.IsMemory() != c.mem {
			t.Errorf("%s IsMemory = %v, want %v", c.op, c.op.IsMemory(), c.mem)
		}
		if c.op.IsLoad() != c.load {
			t.Errorf("%s IsLoad = %v, want %v", c.op, c.op.IsLoad(), c.load)
		}
		if c.op.IsStore() != c.store {
			t.Errorf("%s IsStore = %v, want %v", c.op, c.op.IsStore(), c.store)
		}
		if c.op.IsShared() != c.sh {
			t.Errorf("%s IsShared = %v, want %v", c.op, c.op.IsShared(), c.sh)
		}
	}
}

func TestSrcDstRegMasks(t *testing.T) {
	in := Instr{Op: OpFMA, Dst: 5, HasDst: true, A: R(1), B: Imm(3), C: R(2)}
	if got, want := in.SrcRegs(), uint64(1<<1|1<<2); got != want {
		t.Errorf("SrcRegs = %#x, want %#x", got, want)
	}
	if got, want := in.DstRegs(), uint64(1<<5); got != want {
		t.Errorf("DstRegs = %#x, want %#x", got, want)
	}
	st := Instr{Op: OpStGlobal, A: R(3), B: R(4)}
	if st.DstRegs() != 0 {
		t.Errorf("store should have no dst regs")
	}
	if got, want := st.SrcRegs(), uint64(1<<3|1<<4); got != want {
		t.Errorf("store SrcRegs = %#x, want %#x", got, want)
	}
}

func TestBuilderForwardAndBackwardLabels(t *testing.T) {
	b := NewBuilder("loops", 1)
	b.MovI(1, 0)
	b.Label("top")
	b.Add(1, R(1), Imm(1))
	b.Setp(2, CmpLT, R(1), R(0))
	b.BraIf(R(2), "top")
	b.BraIfNot(R(2), "done")
	b.Nop()
	b.Label("done")
	b.Exit()
	k, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if k.Instrs[3].Target != 1 {
		t.Errorf("backward target = %d, want 1", k.Instrs[3].Target)
	}
	if k.Instrs[4].Target != 6 {
		t.Errorf("forward target = %d, want 6", k.Instrs[4].Target)
	}
	if k.NumRegs != 3 {
		t.Errorf("NumRegs = %d, want 3", k.NumRegs)
	}
}

func TestBuilderErrors(t *testing.T) {
	if _, err := NewBuilder("x", 0).Bra("nowhere").Exit().Build(); err == nil {
		t.Error("undefined label should fail")
	}
	b := NewBuilder("x", 0)
	b.Label("l")
	b.Label("l")
	b.Exit()
	if _, err := b.Build(); err == nil {
		t.Error("duplicate label should fail")
	}
	if _, err := NewBuilder("x", 0).Nop().Build(); err == nil {
		t.Error("kernel without exit should fail")
	}
}

func TestValidateCatchesBadKernels(t *testing.T) {
	bad := []*Kernel{
		{Name: "regs", NumRegs: 0, Instrs: []Instr{{Op: OpExit}}},
		{Name: "regs2", NumRegs: MaxRegs + 1, Instrs: []Instr{{Op: OpExit}}},
		{Name: "empty", NumRegs: 1},
		{Name: "target", NumRegs: 1, Instrs: []Instr{{Op: OpBra, Target: 9}, {Op: OpExit}}},
		{Name: "shared", NumRegs: 2, Instrs: []Instr{{Op: OpLdShared, Dst: 1, HasDst: true, A: R(0)}, {Op: OpExit}}},
		{Name: "oobdst", NumRegs: 2, Instrs: []Instr{{Op: OpMov, Dst: 7, HasDst: true, A: Imm(0)}, {Op: OpExit}}},
		{Name: "oobsrc", NumRegs: 2, Instrs: []Instr{{Op: OpMov, Dst: 1, HasDst: true, A: R(9)}, {Op: OpExit}}},
	}
	for _, k := range bad {
		if err := k.Validate(); err == nil {
			t.Errorf("kernel %q should fail validation", k.Name)
		}
	}
}

const sampleAsm = `
.kernel saxpy
.params 3          # r0=x base, r1=y base, r2=n
  mov r3, %gtid
  setp.ge r4, r3, r2
  bra r4, done
  shl r5, r3, 2
  add r6, r0, r5
  add r7, r1, r5
  ld.global r8, [r6+0]
  ld.global r9, [r7+0]
  fma r9, r8, 2.0, r9
  st.global [r7+0], r9
done:
  exit
`

func TestAssembleSample(t *testing.T) {
	ks, err := Assemble(sampleAsm)
	if err != nil {
		t.Fatal(err)
	}
	if len(ks) != 1 {
		t.Fatalf("got %d kernels, want 1", len(ks))
	}
	k := ks[0]
	if k.Name != "saxpy" || k.NumParams != 3 {
		t.Errorf("name/params = %s/%d", k.Name, k.NumParams)
	}
	if n := k.CountOps(Op.IsLoad); n != 2 {
		t.Errorf("loads = %d, want 2", n)
	}
	if n := k.CountOps(Op.IsStore); n != 1 {
		t.Errorf("stores = %d, want 1", n)
	}
	if k.Instrs[2].Target != k.Labels["done"] {
		t.Errorf("branch target mismatch")
	}
}

func TestAssembleDisassembleRoundTrip(t *testing.T) {
	ks, err := Assemble(sampleAsm)
	if err != nil {
		t.Fatal(err)
	}
	text := Disassemble(ks[0])
	ks2, err := Assemble(text)
	if err != nil {
		t.Fatalf("reassemble: %v\n%s", err, text)
	}
	if err := sameInstrs(ks[0], ks2[0]); err != nil {
		t.Error(err)
	}
}

// sameInstrs reports the first instruction in which two kernels differ.
func sameInstrs(k1, k2 *Kernel) error {
	if len(k1.Instrs) != len(k2.Instrs) {
		return fmt.Errorf("instr count %d != %d", len(k1.Instrs), len(k2.Instrs))
	}
	for i := range k1.Instrs {
		a, b := k1.Instrs[i], k2.Instrs[i]
		if a.Op != b.Op || a.Dst != b.Dst || a.A != b.A || a.B != b.B || a.C != b.C ||
			a.Imm != b.Imm || a.Target != b.Target || a.PredNeg != b.PredNeg {
			return fmt.Errorf("instr %d differs: %v vs %v", i, a, b)
		}
	}
	return nil
}

// FuzzAssemble feeds the assembler arbitrary text, as `tomx cc` does a
// user's file. Assemble must never panic, and every kernel it accepts must
// come back instruction for instruction through Disassemble and Assemble.
//
//	go test ./internal/isa -run '^$' -fuzz FuzzAssemble -fuzztime 20s
func FuzzAssemble(f *testing.F) {
	for _, src := range []string{
		sampleAsm,
		".kernel k\n  ld.global r0, []",
		".kernel k\n.params 1\n  ld.global r1, [r0-8]\n  atom.add r2, [r0-4], 1\n  st.global [r0-16], r1\n  exit",
	} {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		ks, err := Assemble(src)
		if err != nil {
			return
		}
		for _, k := range ks {
			text := Disassemble(k)
			ks2, err := Assemble(text)
			if err != nil {
				t.Fatalf("Assemble rejects Disassemble's output: %v\n%s", err, text)
			}
			if len(ks2) != 1 {
				t.Fatalf("Disassemble's output holds %d kernels:\n%s", len(ks2), text)
			}
			if err := sameInstrs(k, ks2[0]); err != nil {
				t.Fatalf("%v\n%s", err, text)
			}
		}
	})
}

func TestAssembleErrors(t *testing.T) {
	bad := []string{
		"mov r1, r2",                       // outside .kernel
		".kernel k\n  frobnicate r1\nexit", // unknown mnemonic
		".kernel k\n  bra r1\n  exit",      // bra with 1 arg = label "r1" undefined
		".kernel k\n  ld.global r1, r2\n  exit",
		".kernel k\n  mov r99, 0\n  exit",
		"",
	}
	for _, src := range bad {
		if _, err := Assemble(src); err == nil {
			t.Errorf("assembling %q should fail", src)
		}
	}
}

func TestFloatBitsRoundTrip(t *testing.T) {
	f := func(v float32) bool {
		if v != v { // NaN payloads are not preserved bit-exactly through quick's generator
			return true
		}
		return F32FromBits(F32Bits(v)) == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMemRefParsing(t *testing.T) {
	src := ".kernel k\n  ld.global r1, [r0-8]\n  st.global [r0+12], r1\n  exit"
	ks, err := Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	if ks[0].Instrs[0].Imm != -8 {
		t.Errorf("negative offset = %d, want -8", ks[0].Instrs[0].Imm)
	}
	if ks[0].Instrs[1].Imm != 12 {
		t.Errorf("positive offset = %d, want 12", ks[0].Instrs[1].Imm)
	}
}

// TestProgramLowersEveryField: the lowered form restates each instruction
// without loss — scoreboard mask, dispatch and latency class as the timing
// model derived them from the opcode, sources as rows.
func TestProgramLowersEveryField(t *testing.T) {
	k := &Kernel{Name: "lit", NumRegs: 8, SharedBytes: 64, Instrs: []Instr{
		{Op: OpMov, Dst: 2, HasDst: true, A: Sp(SpGtid)},
		{Op: OpFMA, Dst: 5, HasDst: true, A: R(1), B: Imm(-3), C: R(2)},
		{Op: OpFSetp, Cmp: CmpGE, Dst: 6, HasDst: true, A: R(5), B: ImmF(1.5)},
		{Op: OpDiv, Dst: 3, HasDst: true, A: R(2), B: Imm(-3)},
		{Op: OpLdGlobal, Dst: 4, HasDst: true, A: R(0), Imm: -8},
		{Op: OpStShared, A: R(3), B: R(4), Imm: 4},
		{Op: OpBra, A: R(6), PredNeg: true, Target: 7},
		{Op: OpBar},
		{Op: OpNop},
		{Op: OpExit},
	}}
	if err := k.Validate(); err != nil {
		t.Fatal(err)
	}
	p := k.Program()
	if p != k.Program() {
		t.Fatal("Program() lowered the kernel twice")
	}
	if len(p.Code) != len(k.Instrs) {
		t.Fatalf("%d decoded instructions for %d", len(p.Code), len(k.Instrs))
	}
	wantClass := []Class{ClassALU, ClassALU, ClassALU, ClassALU, ClassMem, ClassShared,
		ClassBranch, ClassBarrier, ClassNop, ClassExit}
	wantLat := []Lat{LatALU, LatFP, LatFP, LatDiv, LatMem, LatShared, LatALU, LatALU, LatALU, LatALU}
	for pc, d := range p.Code {
		in := k.Instrs[pc]
		if d.Op != in.Op || d.Cmp != in.Cmp || d.Dst != in.Dst || d.HasDst != in.HasDst ||
			d.PredNeg != in.PredNeg || d.Target != in.Target || d.Imm != uint64(in.Imm) {
			t.Errorf("pc %d (%s): decoded %+v", pc, in, d)
		}
		if d.Class != wantClass[pc] || d.Lat != wantLat[pc] {
			t.Errorf("pc %d (%s): class %d lat %d, want %d %d", pc, in, d.Class, d.Lat, wantClass[pc], wantLat[pc])
		}
		if want := in.SrcRegs() | in.DstRegs(); d.Regs != want {
			t.Errorf("pc %d (%s): Regs %#x, want %#x", pc, in, d.Regs, want)
		}
		for i, pair := range [3]struct {
			o Operand
			s Src
		}{{in.A, d.A}, {in.B, d.B}, {in.C, d.C}} {
			o, s := pair.o, pair.s
			if s.Kind != o.Kind {
				t.Fatalf("pc %d source %d: kind %d, want %d", pc, i, s.Kind, o.Kind)
			}
			switch o.Kind {
			case OpdReg:
				if s.Reg != o.Reg || s.Row != nil {
					t.Errorf("pc %d source %d: %+v, want r%d", pc, i, s, o.Reg)
				}
			case OpdSpecial:
				if s.Sp != o.Sp || s.Row != nil || !d.Special {
					t.Errorf("pc %d source %d: %+v, want %v", pc, i, s, o.Sp)
				}
			default: // immediate, or absent = zero
				for lane, v := range s.Row {
					if v != uint64(o.Imm) {
						t.Fatalf("pc %d source %d lane %d: row holds %#x, want %#x", pc, i, lane, v, uint64(o.Imm))
					}
				}
			}
		}
	}
	if p.Code[1].B.Row != p.Code[3].B.Row {
		t.Error("equal immediates should share one row")
	}
}
