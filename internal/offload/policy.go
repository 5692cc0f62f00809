// Package offload is the offload-policy layer: the decisions the paper
// hardwires — compiler candidate selection (§3.1), the runtime gating
// pipeline (§3.3/§4.2), and destination choice (§4.2 footnote 4) — as one
// Policy struct, so rival schemes (CODA's co-location-aware offloading,
// near-bank MPU offload) can be A/B-tested against TOM over the same
// workload matrix. Every scheme a configuration can name — TOM with and
// without its aggressiveness control, the §6.4 ALU-gated extension, the
// no-offload baseline, the Fig. 2 idealization and the two rivals — is a row
// of one table; a row's fields are exactly where the schemes differ.
//
// The simulator takes three steps per candidate entry, in order:
//
//  1. PreGate — the conditional-trip threshold, before the destination dry
//     run (rows with Conditional; no destination is known yet).
//  2. Dest — the destination stack (and, VaultGranular, vault) from a dry
//     run collecting up to DryRunLines line addresses.
//  3. Gate — aggressiveness control with the destination known (channel
//     busy, pending caps, co-location, per-vault slots).
//
// Each step returns a gate reason ("" = proceed); every non-empty reason is
// accounted in sim.Stats and the per-PC gate profile, so the conservation
// invariant CandidateInstances == Sent + Skipped + LearnEntries holds for
// every policy.
package offload

import (
	"fmt"
	"sort"

	"repro/internal/compiler"
	"repro/internal/mapping"
)

// Gate reasons. The first five are TOM's original skip reasons; the last
// three were added with the policy layer (destbound distinguishes a
// dry-run step-bound bail-out from a genuine no-destination, split and
// vaultfull belong to the CODA and MPU policies).
const (
	ReasonBusy      = "busy"
	ReasonFull      = "full"
	ReasonCond      = "cond"
	ReasonALU       = "alu"
	ReasonNoDest    = "nodest"
	ReasonDestBound = "destbound"
	ReasonSplit     = "split"
	ReasonVaultFull = "vaultfull"
)

// Policy is one point in the offload design space.
type Policy struct {
	// Name is the table key (Config.Policy); it reaches run-spec digests
	// through the canonical configuration.
	Name string
	// Select parameterizes the kernel's offload metadata table
	// (compiler.AnalyzeWith).
	Select compiler.SelectOptions
	// Conditional observes the leader lane's trip count at every
	// conditional-hinted candidate entry (§4.2 step 1), feeding the per-PC
	// profile, and gates entries below the compiler's break-even hint.
	Conditional bool
	// DryRunLines bounds how many global-memory line addresses the
	// destination dry run collects (1 = stop at the first access, TOM's
	// footnote-4 behavior; larger windows let a policy inspect the
	// instance's spatial footprint).
	DryRunLines int
	// VaultGranular resolves the destination down to the first access's
	// vault, whose pending count the simulator then tracks.
	VaultGranular bool
	// ZeroCost models free offload transport (the Fig. 2 idealization):
	// requests spawn directly with no pipeline/link traversal, acks return
	// in one cycle, stack warp slots oversubscribe, and no coherence
	// invalidation cost is charged on return.
	ZeroCost bool
	// ForceColocate steers every stack-SM memory access to its own stack
	// (perfect co-location, again the Fig. 2 idealization).
	ForceColocate bool
	// SpawnLat overrides Config.OffloadPipeLat when > 0 (cycles from the
	// launch decision to the request entering the TX path). Near-bank
	// offload models a cheaper spawn.
	SpawnLat int64
	// Gate is the aggressiveness control with the destination known.
	// Returns a gate reason or "". A row with a nil Gate never offloads:
	// its candidate entries are counted and every one executes inline.
	Gate func(Env, *Request) string
}

// codaWindow matches the learning phase's per-instance observation window
// (sim's learnWindow): the co-location decision sees the same footprint the
// Memory Map Analyzer scores mappings with.
const codaWindow = 8

// mpuSpawnLat is the near-bank spawn cost in cycles: the offload unit sits
// in the vault's logic, so dispatch skips most of TOM's 10-cycle offload
// pipeline (request packing, metadata lookup, TX arbitration).
const mpuSpawnLat = 2

// aluGate is the §6.4 ALU-ratio threshold of the tom-alu row: a candidate
// whose static ALU-instruction fraction exceeds it stays on the GPU while
// its destination stack SM is more than half occupied.
const aluGate = 0.75

// tomSelect is TOM's candidate selection: loops and straight-line blocks
// admitted by the bandwidth cost model of equations (3)/(4).
var tomSelect = compiler.SelectOptions{Cost: compiler.DefaultCostParams()}

// policies is the table of every policy.
//
//   - none is the baseline GPU: TOM's candidate table, so candidate entries
//     are counted, but no Gate, so every one executes inline.
//   - tom is the paper's scheme, bit-for-bit: conservative cost-model
//     candidate selection (equations (3)/(4)), conditional-trip thresholds,
//     first-access destination, and the §3.3 dynamic aggressiveness control.
//   - noctrl is tom without the aggressiveness control: every candidate
//     that passes the trip threshold and finds a destination offloads.
//   - tom-alu extends tom's control with the paper's §6.4 future-work idea:
//     compute-heavy candidates (ALU fraction above aluGate) are not
//     offloaded while the destination stack SM is more than half occupied,
//     keeping them from saturating the logic-layer pipeline.
//   - ideal is the Fig. 2 idealization: TOM's candidate table with
//     zero-cost transport and perfect co-location. Stack warp capacity
//     still applies — the idealization removes offload overheads, not the
//     logic layer's execution resources — and no trip threshold or channel
//     gating runs.
//   - coda models co-location-aware offloading (PAPERS.md: "CODA: Enabling
//     Co-location of Computation and Data"): TOM's candidates and cost
//     model, but the dry run collects a window of accesses and any instance
//     whose lines split across stacks under the live mapping stays on the
//     GPU (gate reason "split"), since offloading it would convert local
//     accesses into cross-stack traffic.
//   - mpu models near-bank offload (PAPERS.md: MPU's near-bank SIMT
//     computing): loops are not offloaded as units, straight-line blocks are
//     cut after every global memory instruction, and every legal snippet is
//     admitted — the per-vault slot limit, not the bandwidth cost model, is
//     the selectivity. The spawn is cheap, but each vault's near-bank unit
//     holds only its share of the stack's warp capacity, so a vault with its
//     slots full gates further offloads to it (reason "vaultfull") while
//     other vaults keep accepting.
var policies = []Policy{
	{Name: "none", Select: tomSelect},
	{Name: "tom", Select: tomSelect, Conditional: true, DryRunLines: 1, Gate: tomGate},
	{Name: "noctrl", Select: tomSelect, Conditional: true, DryRunLines: 1, Gate: noGate},
	{Name: "tom-alu", Select: tomSelect, Conditional: true, DryRunLines: 1, Gate: aluTomGate},
	{Name: "ideal", Select: tomSelect, DryRunLines: 1, ZeroCost: true, ForceColocate: true, Gate: fullGate},
	{Name: "coda", Select: tomSelect, Conditional: true, DryRunLines: codaWindow, Gate: codaGate},
	{Name: "mpu", Select: compiler.SelectOptions{
		Cost: compiler.DefaultCostParams(), SkipLoops: true, MaxBlockMems: 1, Accept: compiler.AcceptAll,
	}, Conditional: true, DryRunLines: 1, VaultGranular: true, SpawnLat: mpuSpawnLat, Gate: vaultGate},
}

// ByName returns the named policy.
func ByName(name string) (Policy, error) {
	for _, p := range policies {
		if p.Name == name {
			return p, nil
		}
	}
	return Policy{}, fmt.Errorf("offload: unknown policy %q (have %v)", name, Names())
}

// Names lists the policy names, sorted.
func Names() []string {
	out := make([]string, len(policies))
	for i, p := range policies {
		out[i] = p.Name
	}
	sort.Strings(out)
	return out
}

// Request is one candidate-entry decision in flight, filled incrementally
// by the simulator and the policy steps.
type Request struct {
	Cand *compiler.Candidate
	// HasLeader: the warp has at least one active lane.
	HasLeader bool
	// Trips is the observed leader-lane trip count for conditional-hinted
	// candidates, -1 when unknown/unobserved.
	Trips int
	// Lines holds the dry run's collected global-memory line addresses
	// (deduplicated, first access first); empty when the dry run found no
	// access.
	Lines []uint64
	// Bounded: the dry run hit its step bound while still inside the
	// region — the access trace is truncated, not absent.
	Bounded bool
	// Stack/Vault are the chosen destination (-1 until Dest succeeds;
	// Vault stays -1 unless the policy is VaultGranular).
	Stack, Vault int
}

// Env is the simulator state a policy may consult, bound to the deciding
// cycle. Implemented by internal/sim.
type Env interface {
	// Place decodes a line address under the active data mapping.
	Place(line uint64) mapping.Place
	// Pending counts offloads in flight to a stack; PendingVault the
	// subset bound to one vault. StackCap is the stack-SM warp capacity
	// (the paper's pending-offload limit).
	Pending(stack int) int
	PendingVault(stack, vault int) int
	StackCap() int
	// TXBusy/RXBusy are the channel-busy tags (§3.3) at the deciding cycle.
	TXBusy(stack int) bool
	RXBusy(stack int) bool
}

// PreGate is TOM's conditional-offload threshold (§4.2 step 1), applied by
// Conditional policies: a conditional-hinted candidate offloads only when
// the leader lane's trip count reaches the compiler's break-even hint. A
// warp with no active lane cannot derive a destination either, so it counts
// as nodest.
func (p *Policy) PreGate(req *Request) string {
	if !p.Conditional || !req.Cand.Conditional() {
		return ""
	}
	if !req.HasLeader {
		return ReasonNoDest
	}
	if req.Trips < req.Cand.Trip.Cond.MinTrips {
		return ReasonCond
	}
	return ""
}

// Dest picks the stack (and, VaultGranular, the vault) of the instance's
// first global-memory access (§4.2 footnote 4). An empty trace that hit the
// dry-run step bound is reported as destbound — the region is diagnosably
// too long to scan — rather than folded into nodest.
func (p *Policy) Dest(env Env, req *Request) string {
	if len(req.Lines) == 0 {
		if req.Bounded {
			return ReasonDestBound
		}
		return ReasonNoDest
	}
	pl := env.Place(req.Lines[0])
	req.Stack = pl.Stack
	if p.VaultGranular {
		req.Vault = pl.Vault
	}
	return ""
}

// tomGate is TOM's dynamic aggressiveness control (§3.3): the per-channel
// busy tags consulted against the 2-bit savings tag, and the pending-offload
// cap.
func tomGate(env Env, req *Request) string {
	c, dest := req.Cand, req.Stack
	if !c.SavesTX && env.TXBusy(dest) {
		return ReasonBusy
	}
	if !c.SavesRX && env.RXBusy(dest) {
		return ReasonBusy
	}
	return fullGate(env, req)
}

// noGate is the uncontrolled scheme's gate: it never fires.
func noGate(Env, *Request) string { return "" }

// aluTomGate declines a compute-heavy candidate while its destination stack
// SM is more than half occupied, then defers to TOM's control.
func aluTomGate(env Env, req *Request) string {
	if req.Cand.ALUFrac > aluGate && env.Pending(req.Stack) > env.StackCap()/2 {
		return ReasonALU
	}
	return tomGate(env, req)
}

// fullGate is the hard pending-offload cap: the destination stack's warp
// capacity.
func fullGate(env Env, req *Request) string {
	if env.Pending(req.Stack) >= env.StackCap() {
		return ReasonFull
	}
	return ""
}

// codaGate keeps an instance whose dry-run lines split across stacks on the
// GPU — some line's stack is not the destination, its first line's — then
// defers to TOM's control.
func codaGate(env Env, req *Request) string {
	for _, l := range req.Lines[1:] {
		if env.Place(l).Stack != req.Stack {
			return ReasonSplit
		}
	}
	return tomGate(env, req)
}

// vaultGate enforces the per-vault slot limit: the stack's warp capacity
// divided evenly over its vaults, minimum one slot per vault.
func vaultGate(env Env, req *Request) string {
	cap := env.StackCap() / mapping.Vaults
	if cap < 1 {
		cap = 1
	}
	if env.PendingVault(req.Stack, req.Vault) >= cap {
		return ReasonVaultFull
	}
	return ""
}
