// Package mapping implements the physical-address decode of the paper's
// memory system: the baseline bandwidth-maximizing XOR-permuted cache-line
// interleave ([9, 61] in the paper), the simple consecutive-bit mappings
// TOM's data-mapping mechanism chooses among (§3.2.1), and the Memory Map
// Analyzer hardware unit that learns the best mapping from early candidate
// instances (§4.3). Decode is the one place an address becomes a stack,
// vault, bank and row; the simulator applies the learned bit only to ranges
// touched by offloading candidates (§3.2.3, sim's place).
package mapping

// Table 1's memory geometry: 4 stacks of 16 vaults of 16 banks, 4 KB DRAM
// rows, and 128 B cache lines. Decode masks with each count, so each must be
// a power of two.
const (
	Stacks         = 4
	Vaults         = 16 // per stack
	Banks          = 16 // per vault
	RowBytes       = 4096
	CacheLineBytes = 128
)

// LineShift is log2(CacheLineBytes); rowShift is log2(RowBytes). Stack
// mapping never uses bits below LineShift (§3.2.1: choosing bits from the
// line offset would hurt link efficiency and row locality).
const (
	LineShift = 7
	rowShift  = 12
)

// MinBit and MaxBit bound the consecutive-bit positions the analyzer
// sweeps: bit 7 (128 B lines) through bit 16 (64 KB chunks), the paper's
// 10 mapping options for a 4-stack system.
const (
	MinBit = 7
	MaxBit = 16
)

// Interleave, passed to Decode as the bit, selects the GPU's default stack
// mapping: consecutive cache lines spread round-robin over stacks, with
// higher-order bits XOR-folded into the stack index to avoid pathological
// strides (Zhang et al.-style permutation), maximizing bandwidth for
// main-GPU execution.
const Interleave = -1

// Place is where an address lives in the memory system.
type Place struct {
	Stack int    // memory stack, [0, Stacks)
	Vault int    // vault within the stack, [0, Vaults)
	Bank  int    // bank within the vault, [0, Banks)
	Row   uint64 // DRAM row (address / RowBytes)
}

// Decode places addr under the stack mapping bit: Interleave, or a
// consecutive-bit mapping stack = addr[bit+1 : bit] (§3.2.1). The vault is an
// XOR fold of line bits and the bank an XOR fold of row bits; neither
// depends on the stack mapping (the paper only remaps the stack-index
// bits). Using only row bits for the bank keeps every column of a row in
// one bank, so row hits work.
func Decode(addr uint64, bit int) Place {
	line, row := addr>>LineShift, addr>>rowShift
	var stack uint64
	if bit == Interleave {
		stack = line ^ line>>6 ^ line>>11
	} else {
		stack = addr >> uint(bit)
	}
	return Place{
		Stack: int(stack & (Stacks - 1)),
		Vault: int((line ^ line>>5 ^ line>>9) & (Vaults - 1)),
		Bank:  int((row ^ row>>4 ^ row>>8) & (Banks - 1)),
		Row:   row,
	}
}
