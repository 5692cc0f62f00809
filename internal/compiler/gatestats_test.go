package compiler

import "testing"

func TestGateStatsArithmetic(t *testing.T) {
	g := &GateStats{}
	for _, r := range []string{"cond", "busy", "full", "alu", "nodest", "bogus"} {
		g.CountSkip(r)
	}
	if g.Gated() != 5 {
		t.Errorf("Gated = %d, want 5 (unknown reasons must not count)", g.Gated())
	}
	g.Sent = 5
	g.LearnEntries = 3 // must not affect decisions
	if g.Decisions() != 10 {
		t.Errorf("Decisions = %d, want 10", g.Decisions())
	}
	if g.GateRate() != 0.5 {
		t.Errorf("GateRate = %v, want 0.5", g.GateRate())
	}
	if (&GateStats{}).GateRate() != 0 {
		t.Error("GateRate with no decisions must be 0")
	}
	g.TripSum, g.TripObs = 30, 4
	if g.MeanTrips() != 7.5 {
		t.Errorf("MeanTrips = %v, want 7.5", g.MeanTrips())
	}
	if (&GateStats{}).MeanTrips() != 0 {
		t.Error("MeanTrips with no observations must be 0")
	}
}

func TestGateProfileAtAndPCs(t *testing.T) {
	p := GateProfile{}
	p.At(12).Sent++
	p.At(3).SkippedCond++
	p.At(12).Sent++
	if p[12].Sent != 2 {
		t.Errorf("At must reuse the bucket: sent = %d, want 2", p[12].Sent)
	}
	pcs := p.PCs()
	if len(pcs) != 2 || pcs[0] != 3 || pcs[1] != 12 {
		t.Errorf("PCs = %v, want [3 12]", pcs)
	}
}
