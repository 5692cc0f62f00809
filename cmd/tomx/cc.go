package main

// cc runs TOM's offload-candidate selection (the §3.1 compiler pass) over a
// kernel written in the project's PTX-like assembly (docs/ISA.md) and dumps
// the offloading metadata table:
//
//	tomx cc kernel.s
//	tomx cc -              # read from stdin
//	tomx cc -workload LIB  # analyze a built-in workload's kernels

import (
	"fmt"
	"io"
	"os"

	"repro/internal/compiler"
	"repro/internal/isa"
	"repro/internal/workloads"
)

func ccMode(args []string, stdin io.Reader, stdout, stderr io.Writer) error {
	fs := newFlagSet("cc", "usage: tomx cc [-d] <kernel.s | -> | tomx cc [-d] -workload ABBR\n", stderr)
	workload := fs.String("workload", "", "analyze a built-in workload instead of a source file")
	disasm := fs.Bool("d", false, "also print the disassembly")
	if err := parse(fs, args, 1); err != nil {
		return err
	}

	var kernels []*isa.Kernel
	switch {
	case *workload != "" && fs.NArg() == 0:
		w, err := workloads.ByAbbr(*workload)
		if err != nil {
			return err
		}
		inst, err := w.Build(0.05)
		if err != nil {
			return err
		}
		seen := map[string]bool{}
		for _, l := range inst.Launches {
			if !seen[l.Kernel.Name] {
				seen[l.Kernel.Name] = true
				kernels = append(kernels, l.Kernel)
			}
		}
	case *workload == "" && fs.NArg() == 1:
		var src []byte
		var err error
		if fs.Arg(0) == "-" {
			src, err = io.ReadAll(stdin)
		} else {
			src, err = os.ReadFile(fs.Arg(0))
		}
		if err != nil {
			return err
		}
		if kernels, err = isa.Assemble(string(src)); err != nil {
			return err
		}
	default:
		fs.Usage()
		return errUsage
	}

	for _, k := range kernels {
		if *disasm {
			fmt.Fprintln(stdout, isa.Disassemble(k))
		}
		md, err := compiler.Analyze(k, compiler.DefaultCostParams())
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "kernel %s: %d instructions, %d registers, %d offload candidates\n",
			k.Name, len(k.Instrs), k.NumRegs, len(md.Candidates))
		for _, c := range md.Candidates {
			fmt.Fprintf(stdout, "  %s\n", c)
			fmt.Fprintf(stdout, "    live-in mask %#x, live-out mask %#x, tag TX=%v RX=%v\n",
				c.LiveIn, c.LiveOut, c.SavesTX, c.SavesRX)
			if c.Conditional() {
				cond := c.Trip.Cond
				bound := fmt.Sprintf("r%d", cond.BoundReg)
				if !cond.BoundIsReg {
					bound = fmt.Sprintf("%d", cond.BoundImm)
				}
				fmt.Fprintf(stdout, "    condition: trips(r%d %s %s, step %d) >= %d\n",
					cond.IndReg, cond.Cmp, bound, cond.Step, cond.MinTrips)
			}
		}
	}
	return nil
}
