// Mappingstudy: reproduce the §3.2 data-mapping analysis on one workload —
// sweep every consecutive-bit stack mapping, compare compute/data
// co-location against the baseline XOR mapping, and show how little of the
// access stream the learning phase needs to observe (Fig. 6's insight).
//
//	go run ./examples/mappingstudy [ABBR]   (default FWT)
package main

import (
	"fmt"
	"log"
	"os"

	"repro/internal/mapping"
	"repro/internal/sim"
	"repro/internal/workloads"
)

func main() {
	abbr := "FWT"
	if len(os.Args) > 1 {
		abbr = os.Args[1]
	}
	w, err := workloads.ByAbbr(abbr)
	if err != nil {
		log.Fatal(err)
	}
	inst, err := w.Build(0.25)
	if err != nil {
		log.Fatal(err)
	}
	c := inst.Clone()
	p, err := sim.RunProfile(c.Mem, c.Alloc, c.Launches)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("%s (%s): %d offloading-candidate instances observed\n\n",
		w.Name, w.Abbr, p.Map.Instances())

	fmt.Println("co-location probability by consecutive-bit mapping:")
	oBit := p.Map.BestBit()
	oCo := p.Map.CoLocation(oBit)
	for bit := mapping.MinBit; bit <= mapping.MaxBit; bit++ {
		co := p.Map.CoLocation(bit)
		marker := ""
		if bit == oBit {
			marker = "  <- oracle best"
		}
		fmt.Printf("  bits [%2d:%2d]  %5.1f%%%s\n", bit+1, bit, co*100, marker)
	}
	fmt.Printf("  baseline map %5.1f%%\n\n", p.BaselineCoLocation()*100)

	fmt.Println("mapping learned from a prefix of candidate instances (Fig. 6):")
	for _, frac := range []float64{0.001, 0.005, 0.01, 1.0} {
		bit, co := p.BestBitFromFraction(frac)
		fmt.Printf("  first %5.1f%% of instances -> bit %2d, co-location %5.1f%%\n",
			frac*100, bit, co*100)
	}
	fmt.Printf("\noracle: bit %d at %.1f%% co-location (paper: ~75%% avg; baseline ~38%%)\n",
		oBit, oCo*100)

	fmt.Println("\nfixed-offset structure of the candidates (Fig. 5):")
	buckets := p.OffsetBuckets()
	for b, n := range buckets {
		if n > 0 {
			fmt.Printf("  %-28s %d candidate(s)\n", mapping.OffsetBucket(b), n)
		}
	}
}
