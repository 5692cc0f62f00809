package sim

import (
	"testing"

	"repro/internal/mem"
)

// TestL2ReachPerBank pins how many lines the shared L2 can hold (h8,
// ROADMAP item 2(g)). bankIndex picks the bank from line-number bits 0–3
// and each bank's tag store picks its set from bits 0–4, so the lines of a
// bank fall into 2 of its 32 sets: filling twice the L2's 8,192 lines leaves
// 32 resident per bank, 512 in all (64 KB of the 1 MB). Indexing a bank's
// sets by the line number divided by the bank count lets every bank reach
// all 32 sets (a scratch copy that did so read 8,192), and the fix flips
// this test to 8,192 on purpose.
func TestL2ReachPerBank(t *testing.T) {
	cfg := DefaultConfig()
	sys := New(cfg, mem.NewFlat(), mem.NewAllocTable())
	capacity := cfg.L2Bytes / cfg.LineBytes
	for i := range 2 * capacity {
		// Each line completes a miss with no waiters: the fill path the
		// model takes when a line returns from memory.
		line := uint64(i * cfg.LineBytes)
		sys.l2mshr[line] = &l2entry{}
		sys.l2fill(line, 0)
	}
	total := 0
	for i, b := range sys.l2.banks {
		n := b.tags.Resident()
		if n != 32 {
			t.Errorf("bank %d holds %d lines after %d distinct fills, want 32", i, n, 2*capacity)
		}
		total += n
	}
	if capacity != 8192 || total != 512 {
		t.Errorf("the L2 holds %d of its %d lines, want 512 of 8192", total, capacity)
	}
}
