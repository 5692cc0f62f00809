package core

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/mapping"
	"repro/internal/obs"
)

// TestTimelineMatchesSerialObserve: parallel observed runs (Timeline runs
// an experiment's pairs on the scheduler) must produce, per run, exactly
// the snapshot a serial Observe of the same spec produces, and the shared
// trace must stay attributable through run labels. Runs under -race in CI.
func TestTimelineMatchesSerialObserve(t *testing.T) {
	s := NewSession(Options{Scale: 0.03})
	trace := &obs.CollectSink{}
	snaps, err := s.Timeline("fig2", 512, trace, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfgs, err := TimelineConfigs("fig2")
	if err != nil {
		t.Fatal(err)
	}
	pairs := pairsOf(cfgs)
	if len(snaps) != len(pairs) {
		t.Fatalf("snapshots for %d runs, want %d", len(snaps), len(pairs))
	}
	for _, p := range pairs {
		spec, err := s.Spec(p.Abbr, p.Config)
		if err != nil {
			t.Fatal(err)
		}
		res, want, err := s.Observe(spec, nil, 1, 512)
		if err != nil {
			t.Fatal(err)
		}
		got := snaps[p.Key()]
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: parallel snapshot differs from the serial run", p.Key())
		}
		if got.Counters["offload.sent"] != res.Stats.OffloadsSent {
			t.Errorf("%s: snapshot sent = %d, stats say %d",
				p.Key(), got.Counters["offload.sent"], res.Stats.OffloadsSent)
		}
	}

	evs := trace.Events()
	if len(evs) == 0 {
		t.Fatal("shared trace collected nothing")
	}
	for _, ev := range evs {
		if snaps[ev.Run] == nil {
			t.Fatalf("trace event with unknown run label %q", ev.Run)
		}
	}
}

// TestObserveTraceSampling: per-kind sampling must thin a run's trace while
// keeping every kind it emitted represented.
func TestObserveTraceSampling(t *testing.T) {
	s := NewSession(Options{Scale: 0.05})
	for _, abbr := range []string{"LIB", "SP"} {
		spec, err := s.Spec(abbr, CfgCtrlBmap)
		if err != nil {
			t.Fatal(err)
		}
		full, sampled := &obs.CollectSink{}, &obs.CollectSink{}
		if _, _, err := s.Observe(spec, full, 1, 0); err != nil {
			t.Fatal(err)
		}
		if _, _, err := s.Observe(spec, sampled, 16, 0); err != nil {
			t.Fatal(err)
		}
		nf, ns := len(full.Events()), len(sampled.Events())
		if ns == 0 || ns >= nf {
			t.Fatalf("%s: sampling kept %d of %d events", spec.Key(), ns, nf)
		}
		if sampled.CountKind(obs.EvSend) == 0 {
			t.Errorf("%s: no send events survived sampling", spec.Key())
		}
		for _, ev := range full.Events() {
			if sampled.CountKind(ev.Kind) == 0 {
				t.Errorf("%s: kind %s lost to sampling", spec.Key(), ev.Kind)
				break
			}
		}
	}
}

// TestObserveFlushesFailedRuns extends the sampling-conservation check to a
// failing run: a run that dies mid-simulation has already pushed events
// through its sampling sink, so its per-kind trace_sampled summaries must
// still reach the shared trace — otherwise the trace under-reports what was
// sampled away exactly when a reader most needs to know (the run it is
// debugging is the one that failed). The failure is induced by truncating
// MaxCycles just below the run's natural length, so nearly the whole event
// stream exists before the error.
func TestObserveFlushesFailedRuns(t *testing.T) {
	const scale = 0.05
	s := NewSession(Options{Scale: scale})

	// Learn the failing run's natural length first (memoized, cheap).
	natural, err := s.Run("SP", CfgCtrlBmap)
	if err != nil {
		t.Fatal(err)
	}
	good, err := NewRunSpec("LIB", scale, CfgCtrlBmap)
	if err != nil {
		t.Fatal(err)
	}
	bad, err := NewRunSpec("SP", scale, CfgCtrlBmap)
	if err != nil {
		t.Fatal(err)
	}
	bad.Cfg.MaxCycles = natural.Stats.Cycles - 2 // quiescence is unreachable

	trace := &obs.CollectSink{}
	if _, snap, err := s.Observe(good, trace, 8, 0); err != nil || snap == nil {
		t.Fatalf("the good run: snapshot %v, err %v", snap, err)
	}
	res, snap, err := s.Observe(bad, trace, 8, 0)
	if err == nil {
		t.Fatal("the truncated run must fail")
	}
	if !strings.Contains(err.Error(), "SP/ctrl-bmap") || !strings.Contains(err.Error(), "MaxCycles") {
		t.Fatalf("unexpected failure: %v", err)
	}
	if res != nil || snap != nil {
		t.Fatal("the failed run must return neither a result nor a snapshot")
	}

	// Conservation per run label, failed run included: every kind that kept
	// events has a trace_sampled summary whose Kept matches the events that
	// actually reached the trace, with N >= Kept.
	kept := map[string]map[string]int{}
	summaries := map[string]map[string]obs.Event{}
	for _, ev := range trace.Events() {
		if ev.Kind == obs.EvTraceSampled {
			if summaries[ev.Run] == nil {
				summaries[ev.Run] = map[string]obs.Event{}
			}
			summaries[ev.Run][ev.Reason] = ev
			continue
		}
		if kept[ev.Run] == nil {
			kept[ev.Run] = map[string]int{}
		}
		kept[ev.Run][ev.Kind]++
	}
	for _, label := range []string{good.Key(), bad.Key()} {
		sums := summaries[label]
		if len(sums) == 0 {
			t.Fatalf("%s: no trace_sampled summaries reached the shared trace", label)
		}
		for kind, n := range kept[label] {
			sum, ok := sums[kind]
			if !ok {
				t.Errorf("%s: kind %s kept %d events but has no summary", label, kind, n)
				continue
			}
			if sum.Kept != n {
				t.Errorf("%s/%s: summary says kept=%d, trace holds %d", label, kind, sum.Kept, n)
			}
			if sum.N < sum.Kept {
				t.Errorf("%s/%s: seen %d < kept %d", label, kind, sum.N, sum.Kept)
			}
		}
	}
}

// TestStackPendingShareBalanced is the ROADMAP regression check, wired into
// CI via go test: across the Fig. 9 workloads under full TOM, no single
// memory stack may absorb a disproportionate share of the sampled
// stack.N.pending_offloads occupancy — single-stack offload waves are
// invisible in end-of-run totals, so this is the only guard against them.
// Empirically the max share sits at 0.25-0.31 at this scale; 0.5 flags a
// genuine wave without tripping on sampling noise.
func TestStackPendingShareBalanced(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-workload observed matrix")
	}
	const (
		scale      = 0.1
		minSamples = 100.0 // below this the share estimate is noise
		maxShare   = 0.5
	)
	s := NewSession(Options{Scale: scale})
	var pairs []Pair
	for _, a := range Abbrs() {
		pairs = append(pairs, Pair{Abbr: a, Config: CfgCtrlTmap})
	}
	snaps := make([]*obs.Snapshot, len(pairs))
	err := forEach(len(pairs), func(i int) string { return pairs[i].Key() }, func(i int) error {
		spec, err := s.Spec(pairs[i].Abbr, pairs[i].Config)
		if err != nil {
			return err
		}
		_, snaps[i], err = s.Observe(spec, nil, 1, 512)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	measured := 0
	for i, p := range pairs {
		snap := snaps[i]
		total, max := 0.0, 0.0
		for st := range mapping.Stacks {
			sum := 0.0
			for _, v := range snap.Series[fmt.Sprintf("stack.%d.pending_offloads", st)].Values {
				sum += v
			}
			total += sum
			if sum > max {
				max = sum
			}
		}
		if total < minSamples {
			continue
		}
		measured++
		if share := max / total; share > maxShare {
			t.Errorf("%s: one stack absorbs %.0f%% of pending-offload occupancy (max %.0f%%)",
				p.Abbr, share*100, maxShare*100)
		}
	}
	if measured == 0 {
		t.Fatal("no workload produced enough occupancy samples — the check is vacuous")
	}
}
