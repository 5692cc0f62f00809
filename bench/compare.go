package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sort"
)

func loadResults(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if f.Schema != resultSchema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, f.Schema, resultSchema)
	}
	return &f, nil
}

// values collects one metric's value from every run of a workload and pass.
func (f *resultFile) values(workload string, traced bool, name string) []float64 {
	var out []float64
	for _, r := range f.Runs {
		if m, ok := r.Metrics[name]; ok && r.Workload == workload && r.Traced == traced {
			out = append(out, m.Value)
		}
	}
	return out
}

// verdict judges set b against set a for one end-to-end metric. worsening
// is the relative move of the median in the metric's bad direction. When
// either set's interquartile spread is wider than the bound the medians
// cannot resolve a move of that size, unless every run of one side beats
// every run of the other.
func verdict(d metricDef, a, b []float64) (worsening float64, word string) {
	ma, mb := median(a), median(b)
	if ma == 0 {
		return 0, "unresolved"
	}
	worsening = (mb - ma) / ma
	if d.better == "higher" {
		worsening = -worsening
	}
	sa, sb := sorted(a), sorted(b)
	bAllWorse := sb[0] > sa[len(sa)-1]
	bAllBetter := sb[len(sb)-1] < sa[0]
	if d.better == "higher" {
		bAllWorse, bAllBetter = bAllBetter, bAllWorse
	}
	switch {
	case worsening > d.bound && (bAllWorse || max(spread(a), spread(b)) <= d.bound):
		return worsening, "worse"
	case worsening < -d.bound && (bAllBetter || max(spread(a), spread(b)) <= d.bound):
		return worsening, "better"
	case max(spread(a), spread(b)) > d.bound:
		return worsening, "unresolved"
	}
	return worsening, "same"
}

// compareFiles prints one row per (end-to-end metric, workload), then checks
// that failed operations and every exact count agree run for run. It
// reports whether nothing is worse, unresolved or unequal.
func compareFiles(pathA, pathB string) bool {
	a, errA := loadResults(pathA)
	b, errB := loadResults(pathB)
	if err := errors.Join(errA, errB); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return false
	}
	return compareResults(a, b)
}

func compareResults(a, b *resultFile) bool {
	ok := true
	fmt.Printf("A: commit %.12s, %s, nproc %d\nB: commit %.12s, %s, nproc %d\n\n",
		a.Commit, a.GoVersion, a.NumCPU, b.Commit, b.GoVersion, b.NumCPU)
	fmt.Printf("%-12s %-24s %12s %12s %14s %7s %8s %8s  %s\n",
		"workload", "metric", "median A", "median B", "B/A", "bound", "iqr A", "iqr B", "verdict")
	for _, w := range workloadTable {
		for _, d := range endToEnd {
			va, vb := a.values(w.name, false, d.name), b.values(w.name, false, d.name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			_, word := verdict(d, va, vb)
			if word == "worse" || word == "unresolved" {
				ok = false
			}
			fmt.Printf("%-12s %-24s %12.6g %12.6g %8.4f of A %6.0f%% %7.1f%% %7.1f%%  %s (n %d, %d)\n",
				w.name, d.name, median(va), median(vb), ratio(median(vb), median(va)),
				d.bound*100, spread(va)*100, spread(vb)*100, word, len(va), len(vb))
		}
	}

	// Exact counts and failed operations, matched by workload, pass and seed.
	type key struct {
		workload string
		traced   bool
		seed     int64
	}
	index := map[key]result{}
	for _, r := range a.Runs {
		index[key{r.Workload, r.Traced, r.Inputs.Seed}] = r
	}
	exact := map[string]bool{}
	for _, d := range perLayer {
		exact[d.name] = d.exact
	}
	matched := 0
	var unequal []string
	for _, rb := range b.Runs {
		ra, found := index[key{rb.Workload, rb.Traced, rb.Inputs.Seed}]
		if !found {
			continue
		}
		matched++
		where := fmt.Sprintf("%s seed %d", rb.Workload, rb.Inputs.Seed)
		if ra.Failed != rb.Failed {
			unequal = append(unequal, fmt.Sprintf("%s: operations failed %d vs %d", where, ra.Failed, rb.Failed))
		}
		for name, mb := range rb.Metrics {
			if ma, has := ra.Metrics[name]; has && exact[name] && ma.Value != mb.Value {
				unequal = append(unequal, fmt.Sprintf("%s: %s %v vs %v", where, name, ma.Value, mb.Value))
			}
		}
	}
	sort.Strings(unequal)
	fmt.Printf("\nexact counts and failed operations: %d runs matched by workload, pass and seed, %d differences\n",
		matched, len(unequal))
	for _, u := range unequal {
		fmt.Println("  UNEQUAL:", u)
	}
	return ok && len(unequal) == 0
}
