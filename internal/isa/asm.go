package isa

import (
	"fmt"
	"strconv"
	"strings"
)

// Assemble parses the textual assembly syntax and returns the kernels it
// defines. The syntax, one instruction per line ("#" or ";" start comments):
//
//	.kernel <name>
//	.params <n>          # r0..r(n-1) are parameters
//	.shared <bytes>      # optional CTA shared memory
//	<label>:
//	  mov   r2, %gtid
//	  add   r3, r0, r2
//	  ld.global r4, [r3+16]
//	  st.global [r3+0], r4
//	  setp.lt r5, r2, r1
//	  bra   r5, loop     # conditional; "!r5" negates; bare label = always
//	  fadd  r4, r4, 1.5  # literals with '.' are float32 immediates
//	  exit
//
// Multiple .kernel sections may appear in one source.
func Assemble(src string) ([]*Kernel, error) {
	var kernels []*Kernel
	var b *Builder
	flush := func() error {
		if b == nil {
			return nil
		}
		k, err := b.Build()
		if err != nil {
			return err
		}
		kernels = append(kernels, k)
		b = nil
		return nil
	}
	for lineNo, raw := range strings.Split(src, "\n") {
		line := raw
		if i := strings.IndexAny(line, "#;"); i >= 0 {
			line = line[:i]
		}
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		fail := func(format string, args ...any) error {
			return fmt.Errorf("isa: line %d: %s: %q", lineNo+1, fmt.Sprintf(format, args...), strings.TrimSpace(raw))
		}
		if strings.HasPrefix(line, ".kernel") {
			if err := flush(); err != nil {
				return nil, err
			}
			name := strings.TrimSpace(strings.TrimPrefix(line, ".kernel"))
			if name == "" {
				return nil, fail("missing kernel name")
			}
			b = NewBuilder(name, 0)
			continue
		}
		if b == nil {
			return nil, fail("directive or instruction outside .kernel")
		}
		if strings.HasPrefix(line, ".params") {
			n, err := strconv.Atoi(strings.TrimSpace(strings.TrimPrefix(line, ".params")))
			if err != nil {
				return nil, fail("bad .params")
			}
			b.numParams = n
			continue
		}
		if strings.HasPrefix(line, ".shared") {
			n, err := strconv.Atoi(strings.TrimSpace(strings.TrimPrefix(line, ".shared")))
			if err != nil {
				return nil, fail("bad .shared")
			}
			b.SetShared(n)
			continue
		}
		if strings.HasSuffix(line, ":") {
			b.Label(strings.TrimSuffix(line, ":"))
			continue
		}
		if err := asmInstr(b, line); err != nil {
			return nil, fail("%v", err)
		}
	}
	if err := flush(); err != nil {
		return nil, err
	}
	if len(kernels) == 0 {
		return nil, fmt.Errorf("isa: no kernels in source")
	}
	return kernels, nil
}

// asmInstr parses a single instruction line into the builder.
func asmInstr(b *Builder, line string) error {
	mnem := line
	rest := ""
	if i := strings.IndexAny(line, " \t"); i >= 0 {
		mnem, rest = line[:i], strings.TrimSpace(line[i+1:])
	}
	args := splitArgs(rest)

	switch mnem {
	case "nop":
		b.Nop()
		return nil
	case "bar.sync", "bar":
		b.Bar()
		return nil
	case "exit":
		b.Exit()
		return nil
	case "bra":
		switch len(args) {
		case 1:
			b.Bra(args[0])
			return nil
		case 2:
			pred := args[0]
			if strings.HasPrefix(pred, "!") {
				o, err := parseOperand(pred[1:])
				if err != nil {
					return err
				}
				b.BraIfNot(o, args[1])
				return nil
			}
			o, err := parseOperand(pred)
			if err != nil {
				return err
			}
			b.BraIf(o, args[1])
			return nil
		}
		return fmt.Errorf("bra needs 1 or 2 args")
	}

	// setp.<cmp> / fsetp.<cmp>
	if strings.HasPrefix(mnem, "setp.") || strings.HasPrefix(mnem, "fsetp.") {
		parts := strings.SplitN(mnem, ".", 2)
		c, err := parseCmp(parts[1])
		if err != nil {
			return err
		}
		dst, a, bo, err := dstAB(args)
		if err != nil {
			return err
		}
		if parts[0] == "setp" {
			b.Setp(dst, c, a, bo)
		} else {
			b.FSetp(dst, c, a, bo)
		}
		return nil
	}

	switch mnem {
	case "ld.global", "ld.shared":
		if len(args) != 2 {
			return fmt.Errorf("%s needs dst, [addr+off]", mnem)
		}
		dst, err := parseReg(args[0])
		if err != nil {
			return err
		}
		addr, off, err := parseMemRef(args[1])
		if err != nil {
			return err
		}
		if mnem == "ld.global" {
			b.Ld(dst, addr, off)
		} else {
			b.LdShared(dst, addr, off)
		}
		return nil
	case "st.global", "st.shared":
		if len(args) != 2 {
			return fmt.Errorf("%s needs [addr+off], src", mnem)
		}
		addr, off, err := parseMemRef(args[0])
		if err != nil {
			return err
		}
		val, err := parseOperand(args[1])
		if err != nil {
			return err
		}
		if mnem == "st.global" {
			b.St(addr, off, val)
		} else {
			b.StShared(addr, off, val)
		}
		return nil
	case "atom.add":
		if len(args) != 3 {
			return fmt.Errorf("atom.add needs dst, [addr+off], src")
		}
		dst, err := parseReg(args[0])
		if err != nil {
			return err
		}
		addr, off, err := parseMemRef(args[1])
		if err != nil {
			return err
		}
		val, err := parseOperand(args[2])
		if err != nil {
			return err
		}
		b.AtomAdd(dst, addr, off, val)
		return nil
	case "fma", "selp":
		if len(args) != 4 {
			return fmt.Errorf("%s needs dst and 3 sources", mnem)
		}
		dst, err := parseReg(args[0])
		if err != nil {
			return err
		}
		var ops [3]Operand
		for i, s := range args[1:] {
			if ops[i], err = parseOperand(s); err != nil {
				return err
			}
		}
		if mnem == "fma" {
			b.FMA(dst, ops[0], ops[1], ops[2])
		} else {
			b.Selp(dst, ops[0], ops[1], ops[2])
		}
		return nil
	case "mov", "fneg", "cvt.if", "cvt.fi":
		if len(args) != 2 {
			return fmt.Errorf("%s needs dst, src", mnem)
		}
		dst, err := parseReg(args[0])
		if err != nil {
			return err
		}
		a, err := parseOperand(args[1])
		if err != nil {
			return err
		}
		switch mnem {
		case "mov":
			b.Mov(dst, a)
		case "fneg":
			b.FNeg(dst, a)
		case "cvt.if":
			b.CvtIF(dst, a)
		case "cvt.fi":
			b.CvtFI(dst, a)
		}
		return nil
	}

	binops := map[string]func(Reg, Operand, Operand) *Builder{
		"add": b.Add, "sub": b.Sub, "mul": b.Mul, "div": b.Div, "rem": b.Rem,
		"min": b.Min, "max": b.Max, "and": b.And, "or": b.Or, "xor": b.Xor,
		"shl": b.Shl, "shr": b.Shr, "fadd": b.FAdd, "fsub": b.FSub,
		"fmul": b.FMul, "fdiv": b.FDiv,
	}
	if fn, ok := binops[mnem]; ok {
		dst, a, bo, err := dstAB(args)
		if err != nil {
			return err
		}
		fn(dst, a, bo)
		return nil
	}
	return fmt.Errorf("unknown mnemonic %q", mnem)
}

func dstAB(args []string) (Reg, Operand, Operand, error) {
	if len(args) != 3 {
		return 0, Operand{}, Operand{}, fmt.Errorf("need dst and 2 sources")
	}
	dst, err := parseReg(args[0])
	if err != nil {
		return 0, Operand{}, Operand{}, err
	}
	a, err := parseOperand(args[1])
	if err != nil {
		return 0, Operand{}, Operand{}, err
	}
	bo, err := parseOperand(args[2])
	if err != nil {
		return 0, Operand{}, Operand{}, err
	}
	return dst, a, bo, nil
}

func splitArgs(s string) []string {
	if strings.TrimSpace(s) == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	for i := range parts {
		parts[i] = strings.TrimSpace(parts[i])
	}
	return parts
}

func parseCmp(s string) (Cmp, error) {
	for i, n := range cmpNames {
		if n == s {
			return Cmp(i), nil
		}
	}
	return 0, fmt.Errorf("unknown comparison %q", s)
}

func parseReg(s string) (Reg, error) {
	if !strings.HasPrefix(s, "r") {
		return 0, fmt.Errorf("expected register, got %q", s)
	}
	n, err := strconv.Atoi(s[1:])
	if err != nil || n < 0 || n >= MaxRegs {
		return 0, fmt.Errorf("bad register %q", s)
	}
	return Reg(n), nil
}

func parseOperand(s string) (Operand, error) {
	switch {
	case s == "":
		return Operand{}, fmt.Errorf("empty operand")
	case strings.HasPrefix(s, "%"):
		for i, n := range spNames {
			if n == s {
				return Sp(Special(i)), nil
			}
		}
		return Operand{}, fmt.Errorf("unknown special %q", s)
	case strings.HasPrefix(s, "r") && len(s) > 1 && s[1] >= '0' && s[1] <= '9':
		r, err := parseReg(s)
		if err != nil {
			return Operand{}, err
		}
		return R(r), nil
	case strings.Contains(s, "."):
		f, err := strconv.ParseFloat(s, 32)
		if err != nil {
			return Operand{}, fmt.Errorf("bad float literal %q", s)
		}
		return ImmF(float32(f)), nil
	default:
		v, err := strconv.ParseInt(s, 0, 64)
		if err != nil {
			return Operand{}, fmt.Errorf("bad operand %q", s)
		}
		return Imm(v), nil
	}
}

// parseMemRef parses "[rN+off]" or "[rN]" (off may be negative).
func parseMemRef(s string) (Operand, int64, error) {
	if len(s) < 3 || !strings.HasPrefix(s, "[") || !strings.HasSuffix(s, "]") {
		return Operand{}, 0, fmt.Errorf("expected [addr+off], got %q", s)
	}
	inner := s[1 : len(s)-1]
	off := int64(0)
	base := inner
	if i := strings.IndexAny(inner[1:], "+-"); i >= 0 {
		base = inner[:i+1]
		var err error
		off, err = strconv.ParseInt(inner[i+1:], 0, 64)
		if err != nil {
			return Operand{}, 0, fmt.Errorf("bad offset in %q", s)
		}
	}
	o, err := parseOperand(strings.TrimSpace(base))
	if err != nil {
		return Operand{}, 0, err
	}
	return o, off, nil
}

// Disassemble renders the kernel back to assembly text accepted by Assemble.
func Disassemble(k *Kernel) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, ".kernel %s\n.params %d\n", k.Name, k.NumParams)
	if k.SharedBytes > 0 {
		fmt.Fprintf(&sb, ".shared %d\n", k.SharedBytes)
	}
	// Invert labels; synthesize for any branch target without one.
	labelAt := map[int]string{}
	for name, pc := range k.Labels {
		labelAt[pc] = name
	}
	for _, in := range k.Instrs {
		if in.Op == OpBra {
			if _, ok := labelAt[in.Target]; !ok {
				labelAt[in.Target] = fmt.Sprintf("L%d", in.Target)
			}
		}
	}
	for pc, in := range k.Instrs {
		if l, ok := labelAt[pc]; ok {
			fmt.Fprintf(&sb, "%s:\n", l)
		}
		if in.Op == OpBra {
			pred := ""
			if in.A.Kind != OpdNone {
				if in.PredNeg {
					pred = "!" + in.A.String() + ", "
				} else {
					pred = in.A.String() + ", "
				}
			}
			fmt.Fprintf(&sb, "  bra %s%s\n", pred, labelAt[in.Target])
			continue
		}
		fmt.Fprintf(&sb, "  %s\n", in)
	}
	return sb.String()
}
