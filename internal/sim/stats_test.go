package sim

import (
	"testing"

	"repro/internal/mapping"
	"repro/internal/obs"
	"repro/internal/offload"
)

func TestStatsIPCZeroCycles(t *testing.T) {
	s := &Stats{ThreadInstrs: 100}
	if got := s.IPC(); got != 0 {
		t.Fatalf("IPC with zero cycles = %v, want 0", got)
	}
	s.Cycles = 50
	if got := s.IPC(); got != 2 {
		t.Fatalf("IPC = %v, want 2", got)
	}
}

func TestStatsOffloadedFractionZeroInstrs(t *testing.T) {
	s := &Stats{StackThreadInstrs: 7}
	if got := s.OffloadedInstrFraction(); got != 0 {
		t.Fatalf("fraction with zero instrs = %v, want 0", got)
	}
	s.ThreadInstrs = 28
	if got := s.OffloadedInstrFraction(); got != 0.25 {
		t.Fatalf("fraction = %v, want 0.25", got)
	}
}

func TestStatsOffChipBytes(t *testing.T) {
	s := &Stats{GPUTXBytes: 1, GPURXBytes: 2, CrossBytes: 4,
		PCIeBytes: 100, InternalBytes: 1000}
	// Off-chip = GPU↔memory + memory↔memory; PCIe and TSV traffic are
	// reported separately.
	if got := s.OffChipBytes(); got != 7 {
		t.Fatalf("OffChipBytes = %d, want 7", got)
	}
	if (&Stats{}).OffChipBytes() != 0 {
		t.Fatal("empty stats must report zero traffic")
	}
}

// TestObserverMatchesStats is the acceptance check for the observability
// layer, for every policy: with an Observer attached, the per-interval
// traffic series and the lifecycle counters must sum exactly to the
// end-of-run sim.Stats totals, and the trace must carry one event per
// lifecycle step. The trace is the independent tally of the gate
// accounting: its gate events, counted per reason, must equal each
// OffloadsSkipped* field. The coda and mpu rows reuse the environments of
// TestCodaGatesSplitInstances and TestMPUVaultAccountingDrains, so split and
// vaultfull gates are exercised too.
func TestObserverMatchesStats(t *testing.T) {
	stream := func(t *testing.T) *workloadEnv { return streamEnv(t, 16, 16) }
	cases := []struct {
		policy string
		env    func(t *testing.T) *workloadEnv
		// sends: the run must offload (coda gates every instance of the
		// split layout); gates: a reason the run must gate at least once.
		sends bool
		gates string
	}{
		{"tom", stream, true, ""},
		{"ideal", stream, true, ""},
		{"coda", splitEnv, false, offload.ReasonSplit},
		{"mpu", func(t *testing.T) *workloadEnv { return shortLoopEnv(t, 64) }, true, offload.ReasonVaultFull},
	}
	for _, c := range cases {
		t.Run(c.policy, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Mapping = MapBaseline
			cfg.Policy = c.policy
			checkObserverMatchesStats(t, cfg, c.env(t), c.sends, c.gates)
		})
	}
}

func checkObserverMatchesStats(t *testing.T, cfg Config, env *workloadEnv, mustSend bool, mustGate string) {
	o := obs.New()
	o.SampleEvery = 512
	sink := &obs.CollectSink{}
	o.Trace = sink
	cfg.Observer = o
	sys := runSim(t, cfg, env)
	st := sys.Stats()
	if mustSend && st.OffloadsSent == 0 {
		t.Fatal("run must offload for the lifecycle check to mean anything")
	}
	if st.OffloadsAcked != st.OffloadsSent || st.InFlightOffloads != 0 {
		t.Fatalf("drain invariant broken at quiescence: sent=%d acked=%d inflight=%d",
			st.OffloadsSent, st.OffloadsAcked, st.InFlightOffloads)
	}

	reg := o.Registry
	seriesSum := func(name string) uint64 {
		return uint64(reg.Series(name, o.SampleEvery).Sum() + 0.5)
	}
	if got := seriesSum("traffic.gpu_tx_bytes"); got != st.GPUTXBytes {
		t.Errorf("tx series sums to %d, stats say %d", got, st.GPUTXBytes)
	}
	if got := seriesSum("traffic.gpu_rx_bytes"); got != st.GPURXBytes {
		t.Errorf("rx series sums to %d, stats say %d", got, st.GPURXBytes)
	}
	if got := seriesSum("traffic.cross_bytes"); got != st.CrossBytes {
		t.Errorf("cross series sums to %d, stats say %d", got, st.CrossBytes)
	}
	if got := seriesSum("traffic.pcie_bytes"); got != st.PCIeBytes {
		t.Errorf("pcie series sums to %d, stats say %d", got, st.PCIeBytes)
	}

	gates := map[string]uint64{}
	for _, ev := range sink.Events() {
		if ev.Kind == obs.EvGate {
			gates[ev.Reason]++
		}
	}
	skips := []struct {
		reason string
		want   uint64
	}{
		{offload.ReasonBusy, st.OffloadsSkippedBusy},
		{offload.ReasonFull, st.OffloadsSkippedFull},
		{offload.ReasonCond, st.OffloadsSkippedCond},
		{offload.ReasonALU, st.OffloadsSkippedALU},
		{offload.ReasonNoDest, st.OffloadsSkippedNoDest},
		{offload.ReasonDestBound, st.OffloadsSkippedDestBound},
		{offload.ReasonSplit, st.OffloadsSkippedSplit},
		{offload.ReasonVaultFull, st.OffloadsSkippedVaultFull},
	}
	for _, s := range skips {
		if gates[s.reason] != s.want {
			t.Errorf("%s gate events = %d, stats say %d", s.reason, gates[s.reason], s.want)
		}
		if got := reg.Counter("offload.skipped_" + s.reason).Value(); got != s.want {
			t.Errorf("counter offload.skipped_%s = %d, stats say %d", s.reason, got, s.want)
		}
	}
	if mustGate != "" && gates[mustGate] == 0 {
		t.Errorf("no %s gate fired; this row exists to exercise it", mustGate)
	}

	counters := []struct {
		name string
		want uint64
	}{
		{"offload.candidates", st.CandidateInstances},
		{"offload.sent", st.OffloadsSent},
		{"offload.acks", st.OffloadsAcked},
		{"offload.spawns", st.OffloadsSent},
		{"coherence.invalidates", st.CoherenceInvalidates},
		{"offload.drain_stalls", st.StoreDrainStalls},
	}
	for _, c := range counters {
		if got := reg.Counter(c.name).Value(); got != c.want {
			t.Errorf("counter %s = %d, stats say %d", c.name, got, c.want)
		}
	}

	// Lifecycle trace: one event per step, matching the counters.
	if got := sink.CountKind(obs.EvCandidate); uint64(got) != st.CandidateInstances {
		t.Errorf("candidate events = %d, want %d", got, st.CandidateInstances)
	}
	for _, kind := range []string{obs.EvSend, obs.EvSpawn, obs.EvAck, obs.EvFinish} {
		if got := sink.CountKind(kind); uint64(got) != st.OffloadsSent {
			t.Errorf("%s events = %d, want %d", kind, got, st.OffloadsSent)
		}
	}
	if got := sink.CountKind(obs.EvGate); uint64(got) != st.OffloadsSkipped() {
		t.Errorf("gate events = %d, want %d", got, st.OffloadsSkipped())
	}

	// Per-stack pending-offload occupancy: one sample per elapsed interval
	// for each stack, and at least one nonzero reading somewhere (the run
	// offloaded).
	sawPending := false
	for s := range mapping.Stacks {
		ser := reg.Series("stack."+string(rune('0'+s))+".pending_offloads", o.SampleEvery)
		if ser.Sum() > 0 {
			sawPending = true
		}
	}
	if mustSend && !sawPending {
		t.Error("no pending-offload occupancy was ever sampled nonzero")
	}
}

// TestObserverLearningPhase: the tmap learning phase must emit a learn_end
// event and route its traffic into the pcie series.
func TestObserverLearningPhase(t *testing.T) {
	env := streamEnv(t, 16, 16)
	cfg := DefaultConfig() // MapTransparent: learning on
	o := obs.New()
	sink := &obs.CollectSink{}
	o.Trace = sink
	cfg.Observer = o
	sys := runSim(t, cfg, env)
	if got := sink.CountKind(obs.EvLearnEnd); got != 1 {
		t.Fatalf("learn_end events = %d, want 1", got)
	}
	for _, ev := range sink.Events() {
		if ev.Kind != obs.EvLearnEnd {
			continue
		}
		// LearnedBit -1 (no bit picked) maps to a nil Bit; any picked bit —
		// including bit 0 — must arrive as a non-nil pointer to that value.
		if want := sys.Stats().LearnedBit; want < 0 {
			if ev.Bit != nil {
				t.Errorf("learn_end bit = %d, stats say none", *ev.Bit)
			}
		} else if ev.Bit == nil || *ev.Bit != want {
			t.Errorf("learn_end bit = %v, stats say %d", ev.Bit, want)
		}
	}
	if sys.Stats().PCIeBytes == 0 {
		t.Fatal("learning phase should move PCIe bytes")
	}
	if got := uint64(o.Registry.Series("traffic.pcie_bytes", 0).Sum() + 0.5); got != sys.Stats().PCIeBytes {
		t.Errorf("pcie series sums to %d, stats say %d", got, sys.Stats().PCIeBytes)
	}
}

// TestObserverNilIsInert: a nil Observer must leave results identical to an
// unobserved run (same cycles, same stats) — the hook must be timing-free.
func TestObserverNilIsInert(t *testing.T) {
	env := streamEnv(t, 8, 8)
	cfg := DefaultConfig()
	cfg.Mapping = MapBaseline
	plain := runSim(t, cfg, env)

	cfg2 := cfg
	cfg2.Observer = obs.New()
	observed := runSim(t, cfg2, env)

	if plain.Stats().Cycles != observed.Stats().Cycles {
		t.Errorf("observer changed timing: %d vs %d cycles",
			plain.Stats().Cycles, observed.Stats().Cycles)
	}
	if plain.Stats().OffloadsSent != observed.Stats().OffloadsSent {
		t.Errorf("observer changed offloads: %d vs %d",
			plain.Stats().OffloadsSent, observed.Stats().OffloadsSent)
	}
	if plain.Stats().OffChipBytes() != observed.Stats().OffChipBytes() {
		t.Errorf("observer changed traffic: %d vs %d",
			plain.Stats().OffChipBytes(), observed.Stats().OffChipBytes())
	}
}
