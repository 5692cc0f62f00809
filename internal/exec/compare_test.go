package exec

import (
	"math"
	"testing"

	"repro/internal/cfgx"
	"repro/internal/isa"
	"repro/internal/mem"
)

// TestCompareMatchesStep: Compare returns, for every comparison and operand
// pair, exactly what a one-lane warp's Setp or FSetp writes — signed order
// for integers; NaN, signed zeros and infinities for floats.
func TestCompareMatchesStep(t *testing.T) {
	i64 := func(v int64) uint64 { return uint64(v) }
	f := func(v float64) uint64 { return uint64(math.Float32bits(float32(v))) }
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		op    isa.Op
		pairs [][2]uint64
	}{
		{isa.OpSetp, [][2]uint64{
			{i64(-5), i64(3)}, {i64(3), i64(3)}, {i64(7), i64(-2)},
			{i64(math.MinInt64), i64(math.MaxInt64)}, {i64(-1), i64(-1)}, {i64(0), i64(-1)},
		}},
		{isa.OpFSetp, [][2]uint64{
			{f(nan), f(1)}, {f(1), f(nan)}, {f(nan), f(nan)},
			{f(0), f(math.Copysign(0, -1))}, {f(math.Copysign(0, -1)), f(0)},
			{f(inf), f(-inf)}, {f(-inf), f(inf)}, {f(inf), f(inf)},
			{f(1.5), f(2.5)}, {f(2.5), f(2.5)}, {f(-2.5), f(-3.5)},
		}},
	}
	for _, c := range cases {
		for cmp := isa.CmpEQ; cmp <= isa.CmpGE; cmp++ {
			b := isa.NewBuilder("cmp", 2) // r0 = a, r1 = b
			if c.op == isa.OpFSetp {
				b.FSetp(2, cmp, isa.R(0), isa.R(1))
			} else {
				b.Setp(2, cmp, isa.R(0), isa.R(1))
			}
			k := b.Exit().MustBuild()
			info, err := cfgx.Analyze(k)
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range c.pairs {
				w := NewWarp(k, info, WarpInfo{NTid: 1, NCtaid: 1}, nil, p[:])
				w.Step(NewGlobal(mem.NewFlat()))
				if got, want := Compare(c.op, cmp, p[0], p[1]), w.Regs[2][0]; got != want {
					t.Errorf("%v.%v(%#x, %#x) = %d, Step wrote %d", c.op, cmp, p[0], p[1], got, want)
				}
			}
		}
	}
}
