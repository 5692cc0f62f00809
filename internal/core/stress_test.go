package core

import (
	"strings"
	"sync"
	"testing"

	"repro/internal/obs"
)

// TestSessionConcurrentStress hammers one Session with the access pattern a
// long-running server produces: concurrent Run, Warm, and Observe calls
// over overlapping pairs, with a persistently failing pair mixed in.
// Runs under -race in CI. It asserts the layered-cache invariants that
// overlap must not break:
//
//   - no duplicate simulations: every distinct successful spec simulates
//     exactly once through the memoized path, no matter how many callers
//     race for it (observed runs execute on purpose and do not count);
//   - the memo serves repeats (MemoHits > 0);
//   - errors propagate cleanly to every caller that hit the failing pair
//     and never poison the session for the good ones;
//   - the singleflight map drains to empty.
func TestSessionConcurrentStress(t *testing.T) {
	if testing.Short() {
		t.Skip("concurrent multi-run stress")
	}
	const scale = 0.03
	s := NewSession(Options{Scale: scale, CacheDir: t.TempDir(), Fingerprint: "stress"})
	good := []Pair{
		{Abbr: "LIB", Config: CfgBaseline},
		{Abbr: "LIB", Config: CfgCtrlBmap},
		{Abbr: "SP", Config: CfgBaseline},
		{Abbr: "SP", Config: CfgCtrlBmap},
	}
	bad := Pair{Abbr: "NOPE", Config: CfgBaseline}
	var goodSpecs []RunSpec
	for _, p := range good {
		spec, err := s.Spec(p.Abbr, p.Config)
		if err != nil {
			t.Fatal(err)
		}
		goodSpecs = append(goodSpecs, spec)
	}

	const goroutines = 6
	const iters = 2
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for it := 0; it < iters; it++ {
				switch (g + it) % 3 {
				case 0: // single runs, plus the failing pair
					for _, p := range good {
						if _, err := s.Run(p.Abbr, p.Config); err != nil {
							t.Errorf("Run(%s): %v", p.Key(), err)
						}
					}
					if _, err := s.Run(bad.Abbr, bad.Config); err == nil {
						t.Error("Run of an unknown workload must fail")
					}
				case 1: // a warm batch with the failing pair mixed in
					err := s.Warm(append(append([]Pair{}, good...), bad))
					if err == nil {
						t.Error("Warm with a failing pair must report it")
					} else if !strings.Contains(err.Error(), "NOPE") {
						t.Errorf("Warm error does not name the failing pair: %v", err)
					}
				case 2: // observed runs, sharing one sampled trace
					trace := &obs.CollectSink{}
					for _, spec := range goodSpecs {
						if _, snap, err := s.Observe(spec, trace, 64, 2048); err != nil {
							t.Errorf("Observe(%s): %v", spec.Key(), err)
						} else if snap == nil {
							t.Errorf("Observe(%s) returned no snapshot", spec.Key())
						}
					}
				}
			}
		}(g)
	}
	wg.Wait()

	st := s.CacheStats()
	if st.Simulated != uint64(len(good)) {
		t.Errorf("Simulated = %d, want exactly %d (one per distinct spec; duplicates mean singleflight broke)",
			st.Simulated, len(good))
	}
	if st.MemoHits == 0 {
		t.Error("no memo hits across overlapping batches — the memo layer is not serving repeats")
	}
	if st.DiskHits != 0 {
		t.Errorf("DiskHits = %d within one session, want 0", st.DiskHits)
	}
	if n := s.inflightLen(); n != 0 {
		t.Errorf("inflight map holds %d entries at quiescence, want 0", n)
	}

	// The failing pair must not have poisoned anything: a fresh round of
	// runs is served without error and without new simulations.
	for _, p := range good {
		if _, err := s.Run(p.Abbr, p.Config); err != nil {
			t.Errorf("post-stress Run(%s): %v", p.Key(), err)
		}
	}
	if st := s.CacheStats(); st.Simulated != uint64(len(good)) {
		t.Errorf("post-stress Simulated = %d, want still %d", st.Simulated, len(good))
	}
}
