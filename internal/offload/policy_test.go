package offload

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/compiler"
	"repro/internal/mapping"
)

// fakeEnv is a settable offload.Env for exercising the policy hooks without
// a simulator. Place maps stacks by a coarse address shift so tests can
// place lines on chosen stacks.
type fakeEnv struct {
	cap            int
	stackShift     uint
	pending        map[int]int
	pendingVault   map[[2]int]int
	txBusy, rxBusy map[int]bool
}

func newFakeEnv() *fakeEnv {
	return &fakeEnv{
		cap: 16, stackShift: 12,
		pending:      map[int]int{},
		pendingVault: map[[2]int]int{},
		txBusy:       map[int]bool{},
		rxBusy:       map[int]bool{},
	}
}

func (e *fakeEnv) Place(line uint64) mapping.Place {
	return mapping.Place{Stack: int(line>>e.stackShift) % mapping.Stacks, Vault: int(line>>7) % mapping.Vaults}
}
func (e *fakeEnv) Pending(s int) int         { return e.pending[s] }
func (e *fakeEnv) PendingVault(s, v int) int { return e.pendingVault[[2]int{s, v}] }
func (e *fakeEnv) StackCap() int             { return e.cap }
func (e *fakeEnv) TXBusy(s int) bool         { return e.txBusy[s] }
func (e *fakeEnv) RXBusy(s int) bool         { return e.rxBusy[s] }

func mustPolicy(t *testing.T, name string) Policy {
	t.Helper()
	p, err := ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func condCand(minTrips int) *compiler.Candidate {
	return &compiler.Candidate{
		IsLoop: true,
		Trip:   compiler.TripInfo{Cond: &compiler.Condition{MinTrips: minTrips}},
	}
}

func TestRegistryHasAllPolicies(t *testing.T) {
	names := Names()
	want := []string{"coda", "ideal", "mpu", "noctrl", "none", "tom", "tom-alu"}
	if strings.Join(names, ",") != strings.Join(want, ",") {
		t.Errorf("Names() = %v, want %v", names, want)
	}
	for _, n := range names {
		p := mustPolicy(t, n)
		if p.Name != n {
			t.Errorf("ByName(%q).Name = %q", n, p.Name)
		}
		// Only the baseline never offloads; every other row decides with a
		// dry run and a Gate.
		if (p.Gate == nil) != (n == "none") {
			t.Errorf("policy %q: Gate nil = %v, want nil only for none", n, p.Gate == nil)
		}
		if p.Gate != nil && p.DryRunLines < 1 {
			t.Errorf("policy %q has DryRunLines %d < 1", n, p.DryRunLines)
		}
	}
}

func TestByNameUnknownListsChoices(t *testing.T) {
	_, err := ByName("bogus")
	if err == nil {
		t.Fatal("unknown policy must error")
	}
	if !strings.Contains(err.Error(), "tom") {
		t.Errorf("error should list the policy names, got %q", err)
	}
}

// TestPolicyTraits pins each row's execution-model fields.
func TestPolicyTraits(t *testing.T) {
	type traits struct {
		conditional, vaultGranular, zeroCost, forceColocate bool
		dryRun                                              int
		spawnLat                                            int64
	}
	cases := []struct {
		name string
		want traits
	}{
		{"none", traits{}},
		{"tom", traits{conditional: true, dryRun: 1}},
		{"noctrl", traits{conditional: true, dryRun: 1}},
		{"tom-alu", traits{conditional: true, dryRun: 1}},
		{"ideal", traits{zeroCost: true, forceColocate: true, dryRun: 1}},
		{"coda", traits{conditional: true, dryRun: codaWindow}},
		{"mpu", traits{conditional: true, vaultGranular: true, dryRun: 1, spawnLat: mpuSpawnLat}},
	}
	for _, c := range cases {
		p := mustPolicy(t, c.name)
		got := traits{p.Conditional, p.VaultGranular, p.ZeroCost, p.ForceColocate,
			p.DryRunLines, p.SpawnLat}
		if got != c.want {
			t.Errorf("%s traits = %+v, want %+v", c.name, got, c.want)
		}
	}
	if mpu := mustPolicy(t, "mpu").Select; !mpu.SkipLoops || mpu.MaxBlockMems != 1 || mpu.Accept == nil {
		t.Errorf("mpu selects %+v, want near-bank snippets admitted without the cost model", mpu)
	}
	// TOM's own schemes, the baseline included, share TOM's candidate
	// table: they differ only in what happens at a candidate entry.
	for _, n := range []string{"none", "noctrl", "tom-alu", "ideal", "coda"} {
		if sel := mustPolicy(t, n).Select; !reflect.DeepEqual(sel, tomSelect) {
			t.Errorf("%s selects %+v, want TOM's %+v", n, sel, tomSelect)
		}
	}
}

func TestCondPreGate(t *testing.T) {
	tom, ideal := mustPolicy(t, "tom"), mustPolicy(t, "ideal")
	cases := []struct {
		name string
		req  Request
		want string
	}{
		{"non-conditional passes",
			Request{Cand: &compiler.Candidate{}, HasLeader: true, Trips: -1}, ""},
		{"no leader is nodest",
			Request{Cand: condCand(4), HasLeader: false, Trips: -1}, ReasonNoDest},
		{"below threshold is cond",
			Request{Cand: condCand(4), HasLeader: true, Trips: 3}, ReasonCond},
		{"at threshold passes",
			Request{Cand: condCand(4), HasLeader: true, Trips: 4}, ""},
	}
	for _, c := range cases {
		if got := tom.PreGate(&c.req); got != c.want {
			t.Errorf("%s: PreGate = %q, want %q", c.name, got, c.want)
		}
		if got := ideal.PreGate(&c.req); got != "" {
			t.Errorf("%s: ideal (not Conditional) PreGate = %q, want pass", c.name, got)
		}
	}
}

func TestDestFirstLine(t *testing.T) {
	tom := mustPolicy(t, "tom")
	env := newFakeEnv()
	cases := []struct {
		name      string
		lines     []uint64
		bounded   bool
		want      string
		wantStack int
	}{
		{"no access is nodest", nil, false, ReasonNoDest, -1},
		{"truncated trace is destbound", nil, true, ReasonDestBound, -1},
		{"first line picks the stack", []uint64{2 << 12, 3 << 12}, false, "", 2},
		{"bounded with lines still resolves", []uint64{1 << 12}, true, "", 1},
	}
	for _, c := range cases {
		req := Request{Lines: c.lines, Bounded: c.bounded, Stack: -1, Vault: -1}
		if got := tom.Dest(env, &req); got != c.want {
			t.Errorf("%s: Dest = %q, want %q", c.name, got, c.want)
		}
		if req.Stack != c.wantStack || req.Vault != -1 {
			t.Errorf("%s: req.Stack/Vault = %d/%d, want %d/-1", c.name, req.Stack, req.Vault, c.wantStack)
		}
	}
}

func TestTomGate(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*fakeEnv, *Request)
		want string
	}{
		{"clean pass", nil, ""},
		{"alu frac high over half-full is tom-alu's only", func(e *fakeEnv, r *Request) {
			r.Cand.ALUFrac = 0.9
			e.pending[1] = e.cap/2 + 1
		}, ""},
		{"tx busy without tx savings", func(e *fakeEnv, r *Request) {
			r.Cand.SavesTX = false
			e.txBusy[1] = true
		}, ReasonBusy},
		{"tx busy with tx savings passes", func(e *fakeEnv, r *Request) {
			e.txBusy[1] = true
		}, ""},
		{"rx busy without rx savings", func(e *fakeEnv, r *Request) {
			r.Cand.SavesRX = false
			e.rxBusy[1] = true
		}, ReasonBusy},
		{"pending at capacity", func(e *fakeEnv, r *Request) {
			e.pending[1] = e.cap
		}, ReasonFull},
	}
	for _, c := range cases {
		env, req := gateCase(c.mut)
		if got := tomGate(env, req); got != c.want {
			t.Errorf("%s: tomGate = %q, want %q", c.name, got, c.want)
		}
	}
}

// gateCase is a clean gate decision toward stack 1 — a candidate that saves
// on both channels, nothing pending, no channel busy — with mut applied.
func gateCase(mut func(*fakeEnv, *Request)) (*fakeEnv, *Request) {
	env := newFakeEnv()
	req := &Request{Cand: &compiler.Candidate{SavesTX: true, SavesRX: true}, Stack: 1, Vault: -1,
		Lines: []uint64{1 << 12}}
	if mut != nil {
		mut(env, req)
	}
	return env, req
}

// TestNoctrlGate: the uncontrolled scheme passes every request PreGate
// passes — whatever the channels and the pending counts say — and gates
// nothing PreGate would not.
func TestNoctrlGate(t *testing.T) {
	noctrl, tom := mustPolicy(t, "noctrl"), mustPolicy(t, "tom")
	for _, mut := range []func(*fakeEnv, *Request){
		nil,
		func(e *fakeEnv, r *Request) { r.Cand.SavesTX, e.txBusy[1] = false, true },
		func(e *fakeEnv, r *Request) { r.Cand.SavesRX, e.rxBusy[1] = false, true },
		func(e *fakeEnv, r *Request) { e.pending[1] = 10 * e.cap },
		func(e *fakeEnv, r *Request) { r.Cand.ALUFrac, e.pending[1] = 1, e.cap },
	} {
		env, req := gateCase(mut)
		if got := noctrl.Gate(env, req); got != "" {
			t.Errorf("noctrl Gate = %q on %+v, want pass", got, *req)
		}
	}
	for _, req := range []Request{
		{Cand: &compiler.Candidate{}, HasLeader: true, Trips: -1},
		{Cand: condCand(4), HasLeader: false, Trips: -1},
		{Cand: condCand(4), HasLeader: true, Trips: 3},
		{Cand: condCand(4), HasLeader: true, Trips: 4},
	} {
		if got, want := noctrl.PreGate(&req), tom.PreGate(&req); got != want {
			t.Errorf("noctrl PreGate = %q, tom's = %q on %+v", got, want, req)
		}
	}
}

// TestTomALUGate: tom-alu declines an ALU-heavy candidate only while its
// destination stack SM is more than half occupied, and otherwise decides
// exactly as TOM's control does.
func TestTomALUGate(t *testing.T) {
	p := mustPolicy(t, "tom-alu")
	cases := []struct {
		name string
		mut  func(*fakeEnv, *Request)
		want string
	}{
		{"alu-heavy over half-full", func(e *fakeEnv, r *Request) {
			r.Cand.ALUFrac = 0.9
			e.pending[1] = e.cap/2 + 1
		}, ReasonALU},
		{"alu-heavy at exactly half passes", func(e *fakeEnv, r *Request) {
			r.Cand.ALUFrac = 0.9
			e.pending[1] = e.cap / 2
		}, ""},
		{"alu-heavy on an idle stack passes", func(e *fakeEnv, r *Request) {
			r.Cand.ALUFrac = 0.9
		}, ""},
		{"alu fraction at the threshold passes", func(e *fakeEnv, r *Request) {
			r.Cand.ALUFrac = aluGate
			e.pending[1] = e.cap/2 + 1
		}, ""},
		{"alu-heavy on another stack's load passes", func(e *fakeEnv, r *Request) {
			r.Cand.ALUFrac = 0.9
			e.pending[2] = e.cap
		}, ""},
		{"light candidate defers to tom: busy", func(e *fakeEnv, r *Request) {
			r.Cand.SavesTX = false
			e.txBusy[1] = true
		}, ReasonBusy},
		{"light candidate defers to tom: full", func(e *fakeEnv, r *Request) {
			e.pending[1] = e.cap
		}, ReasonFull},
	}
	for _, c := range cases {
		env, req := gateCase(c.mut)
		got := p.Gate(env, req)
		if got != c.want {
			t.Errorf("%s: tom-alu Gate = %q, want %q", c.name, got, c.want)
		}
		// Wherever the ALU check does not fire, tom-alu is TOM.
		if tom := tomGate(env, req); got != ReasonALU && got != tom {
			t.Errorf("%s: tom-alu Gate = %q, tomGate = %q", c.name, got, tom)
		}
	}
}

// TestCodaSplitGate: coda keeps an instance on the GPU when its dry-run
// footprint spans more than one stack, and defers to TOM's control
// otherwise.
func TestCodaSplitGate(t *testing.T) {
	p := mustPolicy(t, "coda")
	env := newFakeEnv()
	cand := &compiler.Candidate{SavesTX: true, SavesRX: true}

	split := &Request{Cand: cand, Stack: 0, Lines: []uint64{0 << 12, 1 << 12}}
	if got := p.Gate(env, split); got != ReasonSplit {
		t.Errorf("cross-stack footprint: Gate = %q, want %q", got, ReasonSplit)
	}
	co := &Request{Cand: cand, Stack: 2,
		Lines: []uint64{2 << 12, 2<<12 + 128, 2<<12 + 256}}
	if got := p.Gate(env, co); got != "" {
		t.Errorf("co-located footprint: Gate = %q, want pass", got)
	}
	single := &Request{Cand: cand, Stack: 3, Lines: []uint64{3 << 12}}
	if got := p.Gate(env, single); got != "" {
		t.Errorf("single-line footprint: Gate = %q, want pass", got)
	}
	// The TOM aggressiveness control still applies behind the split check.
	env.pending[2] = env.cap
	if got := p.Gate(env, co); got != ReasonFull {
		t.Errorf("co-located but full: Gate = %q, want %q", got, ReasonFull)
	}
}

// TestMPUDestAndVaultGate: mpu resolves a vault-granular destination and
// enforces its per-vault slot share.
func TestMPUDestAndVaultGate(t *testing.T) {
	p := mustPolicy(t, "mpu")
	env := newFakeEnv()
	env.cap = 32
	line := uint64(2<<12 | 3<<7) // stack 2, vault 3

	req := &Request{Cand: &compiler.Candidate{}, Stack: -1, Vault: -1, Lines: []uint64{line}}
	if got := p.Dest(env, req); got != "" {
		t.Fatalf("Dest = %q, want pass", got)
	}
	if req.Stack != 2 || req.Vault != 3 {
		t.Fatalf("Dest picked stack %d vault %d, want 2/3", req.Stack, req.Vault)
	}
	if got := p.Gate(env, req); got != "" {
		t.Errorf("empty vault: Gate = %q, want pass", got)
	}

	// cap 32 over 16 vaults = 2 slots per vault.
	env.pendingVault[[2]int{2, 3}] = 2
	if got := p.Gate(env, req); got != ReasonVaultFull {
		t.Errorf("vault at share: Gate = %q, want %q", got, ReasonVaultFull)
	}
	// Another vault on the same stack is unaffected.
	other := &Request{Cand: req.Cand, Stack: 2, Vault: 4, Lines: req.Lines}
	if got := p.Gate(env, other); got != "" {
		t.Errorf("sibling vault: Gate = %q, want pass", got)
	}

	// The per-vault share clamps to at least one slot.
	env.cap = 8 // 8/16 = 0 -> clamp to 1
	env.pendingVault[[2]int{2, 4}] = 1
	if got := p.Gate(env, other); got != ReasonVaultFull {
		t.Errorf("clamped share: Gate = %q, want %q", got, ReasonVaultFull)
	}
}

// TestIdealGate: the ideal policy ignores channel state and only respects
// the hard pending cap.
func TestIdealGate(t *testing.T) {
	p := mustPolicy(t, "ideal")
	env := newFakeEnv()
	env.txBusy[1], env.rxBusy[1] = true, true
	req := &Request{Cand: &compiler.Candidate{}, Stack: 1}
	if got := p.Gate(env, req); got != "" {
		t.Errorf("busy channels: ideal Gate = %q, want pass", got)
	}
	env.pending[1] = env.cap
	if got := p.Gate(env, req); got != ReasonFull {
		t.Errorf("at capacity: ideal Gate = %q, want %q", got, ReasonFull)
	}
}
