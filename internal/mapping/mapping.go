// Package mapping implements the physical-address-to-memory-stack mapping
// policies of the paper: the baseline bandwidth-maximizing XOR-permuted
// cache-line interleave ([9, 61] in the paper), the simple consecutive-bit
// mappings TOM's data-mapping mechanism chooses among (§3.2.1), and the
// Memory Map Analyzer hardware unit that learns the best mapping from early
// candidate instances (§4.3). The simulator applies the learned mapping only
// to ranges touched by offloading candidates (§3.2.3, sim's stackOf).
package mapping

// CacheLineBytes is the transfer granularity; stack mapping never uses bits
// below it (§3.2.1: choosing bits from the line offset would hurt link
// efficiency and row locality).
const CacheLineBytes = 128

// LineShift is log2(CacheLineBytes).
const LineShift = 7

// MinBit and MaxBit bound the consecutive-bit positions the analyzer
// sweeps: bit 7 (128 B lines) through bit 16 (64 KB chunks), the paper's
// 10 mapping options for a 4-stack system.
const (
	MinBit = 7
	MaxBit = 16
)

// Policy maps addresses to memory stacks.
type Policy interface {
	Stack(addr uint64) int
}

// Baseline is the GPU's default mapping: consecutive cache lines spread
// round-robin over stacks, with higher-order bits XOR-folded into the
// stack index to avoid pathological strides (Zhang et al.-style
// permutation), maximizing bandwidth for main-GPU execution.
type Baseline struct {
	Stacks int
}

// Stack implements Policy.
func (b Baseline) Stack(addr uint64) int {
	line := addr >> LineShift
	return int((line ^ (line >> 6) ^ (line >> 11)) & uint64(b.Stacks-1))
}

// ConsecutiveBits maps with a naked bit field: stack = addr[Bit+k-1 : Bit]
// for 2^k stacks — the simple mapping family of §3.2.1.
type ConsecutiveBits struct {
	Stacks int
	Bit    int
}

// Stack implements Policy.
func (c ConsecutiveBits) Stack(addr uint64) int {
	return int((addr >> uint(c.Bit)) & uint64(c.Stacks-1))
}

// VaultOf spreads cache lines over the vaults within a stack. All policies
// share it: the paper only remaps the stack-index bits.
func VaultOf(addr uint64, vaults int) int {
	line := addr >> LineShift
	return int((line ^ (line >> 5) ^ (line >> 9)) & uint64(vaults-1))
}
