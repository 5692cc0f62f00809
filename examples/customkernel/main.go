// Customkernel: write a GPU kernel in the project's PTX-like assembly, run
// TOM's offload-candidate compiler pass over it, inspect the metadata table,
// and execute it on the simulated NDP system.
//
//	go run ./examples/customkernel
package main

import (
	"fmt"
	"log"

	"repro/internal/compiler"
	"repro/internal/exec"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/sim"
)

// A y[i] = alpha*x[i] + y[i] kernel with a grid-stride loop, written in the
// textual assembly accepted by isa.Assemble (and tomx cc).
const src = `
.kernel axpy
.params 5            # r0=x, r1=y, r2=n-per-thread, r3=alpha, r4=total-threads
  mov r5, %gtid
  mov r6, r5         # idx
  mov r7, 0          # k
top:
  shl r8, r6, 2
  add r9, r0, r8
  ld.global r10, [r9+0]
  add r11, r1, r8
  ld.global r12, [r11+0]
  fma r12, r10, r3, r12
  st.global [r11+0], r12
  add r6, r6, r4
  add r7, r7, 1
  setp.lt r13, r7, r2
  bra r13, top
  exit
`

func main() {
	kernels, err := isa.Assemble(src)
	if err != nil {
		log.Fatal(err)
	}
	k := kernels[0]

	// 1. Compiler pass: find the offloading candidates (§3.1).
	md, err := compiler.Analyze(k, compiler.DefaultCostParams())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("kernel %q: %d instructions, %d offload candidates\n",
		k.Name, len(k.Instrs), len(md.Candidates))
	for _, c := range md.Candidates {
		fmt.Printf("  %v\n", c)
		if c.Conditional() {
			fmt.Printf("    -> hardware offloads only when the loop runs >= %d trips\n",
				c.Trip.Cond.MinTrips)
		}
	}

	// 2. Build inputs through the driver allocation table.
	const threads, perThread = 8192, 64
	n := threads * perThread
	m := mem.NewFlat()
	at := mem.NewAllocTable()
	x := at.Alloc("x", uint64(4*n))
	y := at.Alloc("y", uint64(4*n))
	for i := 0; i < n; i++ {
		m.Store4(x+uint64(4*i), uint32(isa.F32Bits(float32(i%100))))
		m.Store4(y+uint64(4*i), uint32(isa.F32Bits(1.0)))
	}
	launch := exec.Launch{
		Kernel: k, Grid: threads / 128, Block: 128,
		Params: []uint64{x, y, perThread, isa.F32Bits(0.5), threads},
	}

	// 3. Run on the simulated NDP GPU with TOM enabled.
	sys := sim.New(sim.DefaultConfig(), m, at)
	if err := sys.Run([]exec.Launch{launch}); err != nil {
		log.Fatal(err)
	}
	st := sys.Stats()
	fmt.Printf("\nTOM run: %d cycles, IPC %.1f, %d offloads, %.1f MB off-chip\n",
		st.Cycles, st.IPC(), st.OffloadsSent, float64(st.OffChipBytes())/(1<<20))
	fmt.Printf("learned mapping bit %d; %d dirty lines invalidated by coherence\n",
		st.LearnedBit, st.CoherenceInvalidates)

	// 4. Verify the result numerically.
	for _, i := range []int{0, 1, n / 2, n - 1} {
		got := isa.F32FromBits(uint64(m.Load4(y + uint64(4*i))))
		want := 0.5*float32(i%100) + 1.0
		if got != want {
			log.Fatalf("y[%d] = %v, want %v", i, got, want)
		}
	}
	fmt.Println("result verified: y = 0.5*x + 1 everywhere")
}
