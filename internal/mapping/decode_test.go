package mapping

import (
	"testing"
	"testing/quick"
)

// mappings is every stack mapping Decode takes: the interleave, then each
// consecutive bit the analyzer sweeps.
var mappings = func() []int {
	m := []int{Interleave}
	for bit := MinBit; bit <= MaxBit; bit++ {
		m = append(m, bit)
	}
	return m
}()

// TestDecodeReadsOnlyItsBits states which address bits each field of Decode
// reads (DESIGN.md "Fidelity"): flipping any bit outside a field's set never
// changes the field. No field reads the line offset (bits below 7), so a
// line never splits; Row and Bank read only bits ≥ 12, so a 4 KB row sits in
// one bank; Vault reads only bits ≥ 7; and under a consecutive bit b the
// stack is addr[b+1:b] alone, so each 2^b-byte chunk homes on one stack.
// Every field stays in range.
func TestDecodeReadsOnlyItsBits(t *testing.T) {
	const (
		lineBits uint64 = 1<<64 - 1<<LineShift
		rowBits  uint64 = 1<<64 - 1<<rowShift
	)
	for _, bit := range mappings {
		stackBits := lineBits
		if bit != Interleave {
			stackBits = 3 << bit
		}
		f := func(addr, flip uint64) bool {
			p := Decode(addr, bit)
			if p.Stack < 0 || p.Stack >= Stacks || p.Vault < 0 || p.Vault >= Vaults ||
				p.Bank < 0 || p.Bank >= Banks || p.Row != addr/RowBytes {
				return false
			}
			noRow := Decode(addr^flip&^rowBits, bit)
			return Decode(addr^flip&^lineBits, bit) == p &&
				Decode(addr^flip&^stackBits, bit).Stack == p.Stack &&
				noRow.Bank == p.Bank && noRow.Row == p.Row
		}
		if err := quick.Check(f, nil); err != nil {
			t.Errorf("bit %d: %v", bit, err)
		}
	}
}

// TestDecodeReachPerStack pins how many of a stack's Vaults×Banks (vault,
// bank) pairs a sequential 4 MB sweep reaches under each mapping. Vault and
// bank fold address bits that a consecutive-bit mapping holds constant
// within a stack, so bits 8–10 leave part of every stack's bank-level
// parallelism unreachable (ROADMAP item 2(d), h7). Squeezing the stack bits
// out before the vault and bank folds would make every row 256.
func TestDecodeReachPerStack(t *testing.T) {
	want := map[int]int{Interleave: 256, 7: 256, 8: 128, 9: 64, 10: 128,
		11: 256, 12: 256, 13: 256, 14: 256, 15: 256, 16: 256}
	for _, bit := range mappings {
		var reached [Stacks][Vaults * Banks]bool
		for addr := uint64(0); addr < 4<<20; addr += CacheLineBytes {
			p := Decode(addr, bit)
			reached[p.Stack][p.Vault*Banks+p.Bank] = true
		}
		for s := range reached {
			n := 0
			for _, ok := range reached[s] {
				if ok {
					n++
				}
			}
			if n != want[bit] {
				t.Errorf("bit %d: stack %d reaches %d (vault, bank) pairs, want %d", bit, s, n, want[bit])
			}
		}
	}
}
