package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// The sandbox this benchmark runs in has slow phases: for minutes at a time
// everything runs 20 % to 70 % slower while the load average stays flat and
// no steal time is reported, and a run that falls in such a phase would read
// as a regression of every timing at once (README, "Measured noise"). The
// speedometer is the defence. It is a fixed piece of allocating and integer
// work that belongs to the benchmark, not to the program under test, timed
// in a child process at the boundaries of the measured work. Each surface's
// timings are divided by a damped measure of how much slower than
// speedReference the speedometer ran while the surface did, so that they read
// as time on the quiet machine.
//
// The kernel runs in a child (this binary, started with speedometerEnv set)
// because inside this process it would share a heap and a collector with the
// simulator: a change that makes the simulator allocate less would speed the
// ruler up. From its own process the program under test cannot influence it,
// and a change to the program moves a timing by the same factor with the
// division as without it.

const (
	// speedometerEnv, when set in the environment, turns this binary into
	// the speedometer's child: see speedometerMain.
	speedometerEnv = "TOM_BENCH_SPEEDOMETER"

	// speedReference is the kernel's time on the quiet 2-core sandbox. It
	// only fixes the unit: on another machine every normalised timing is off
	// by one constant factor, the same for parent and change.
	speedReference = 13 * time.Millisecond

	// workDamping, serviceDamping and hitDamping are the exponents applied
	// to the kernel's slowdown. The kernel is more sensitive to the sandbox's
	// slow phases than most of the work measured beside it, and not all work
	// is equally sensitive. Over twelve groups of ten runs in phase-ridden
	// hours (README, "Measured noise"), the run-to-run spread of what this
	// process or a tomx child computes — library cells, cold sweeps, set-up
	// — was least with exponents of 0.4 to 0.5; that of what a tomserve
	// child computes or reads for a request — batches, disk hits — with 0.6
	// to 0.85; and the latency of a memo hit, which is two processes waking
	// each other over loopback and little else, followed the kernel one to
	// one wherever a set spanned a quiet and a slow phase.
	workDamping    = 0.5
	serviceDamping = 0.75
	hitDamping     = 1.0
)

type speedNode struct {
	next *speedNode
	key  uint64
	pad  [5]uint64 // 64 B: one cache line per node
}

// speedKernel is the fixed work: allocate 64 B nodes into a ring so that
// most die young and some survive a collection, then a branchy integer loop
// over an L1-sized table. Of the kernels tried beside a simulator cell —
// integer work, a 4 MB random read-modify-write, a dependent-load chase
// through 64 MB, mmap-and-touch, a 16 MB memset, and this allocation loop —
// only allocation slowed as much as the simulator did in a slow phase
// (1.44x against 1.38x; the others 1.12x to 1.18x).
func speedKernel(ring []*speedNode, small []uint32) {
	for i := 0; i < 1<<18; i++ {
		n := &speedNode{key: uint64(i)}
		j := (i * 7919) % len(ring)
		if n.next = ring[j]; n.next != nil {
			n.next.next = nil
		}
		ring[j] = n
	}
	x, acc, mask := uint32(2463534242), uint32(0), uint32(len(small)-1)
	for i := 0; i < 1<<19; i++ {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		v := small[x&mask]
		if v&1 == 0 {
			acc += v*3 + x
		} else {
			acc ^= v >> 3
		}
		small[x&mask] = v + acc
	}
}

// speedometerMain is the child: for every line on standard input it runs the
// kernel once and answers with the nanoseconds it took, until end of input.
func speedometerMain() {
	// With a heap this small the collector would run several times inside
	// every reading and dominate it. The ballast is never touched, so it
	// costs address space, not memory; with it the collector runs once in
	// about sixteen readings, as it does beside a simulator-sized heap.
	ballast := make([]byte, 256<<20)
	defer runtime.KeepAlive(ballast)
	ring, small := make([]*speedNode, 1<<16), make([]uint32, 1<<12)
	in := bufio.NewReader(os.Stdin)
	for {
		if _, err := in.ReadString('\n'); err != nil {
			return
		}
		start := time.Now()
		speedKernel(ring, small)
		fmt.Println(time.Since(start).Nanoseconds())
	}
}

type speedReading struct {
	at       time.Time
	slowdown float64 // kernel time over speedReference: 1.3 = 30 % slower
}

// speedometer is the parent's handle on the child, and every reading taken.
type speedometer struct {
	cmd      *exec.Cmd
	ask      io.WriteCloser
	answer   *bufio.Reader
	readings []speedReading
}

func startSpeedometer(ctx context.Context) (*speedometer, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	m := &speedometer{cmd: exec.CommandContext(ctx, self)}
	m.cmd.Env = append(os.Environ(), speedometerEnv+"=1")
	if m.ask, err = m.cmd.StdinPipe(); err != nil {
		return nil, err
	}
	out, err := m.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	m.answer = bufio.NewReader(out)
	if err := m.cmd.Start(); err != nil {
		return nil, err
	}
	// The first readings grow the child's heap to its steady size and run
	// slow; a surface that starts right away (set-up) would be normalised
	// by them.
	for i := 0; i < 5; i++ {
		m.read()
	}
	m.readings = nil
	return m, nil
}

// read takes one reading, now. Call it between measurements, never inside
// one. A child that has died yields no reading; timings then stay as
// measured.
func (m *speedometer) read() {
	start := time.Now()
	if _, err := io.WriteString(m.ask, "\n"); err != nil {
		return
	}
	line, err := m.answer.ReadString('\n')
	if err != nil {
		return
	}
	if ns, err := strconv.ParseInt(strings.TrimSpace(line), 10, 64); err == nil {
		m.readings = append(m.readings, speedReading{start, float64(ns) / float64(speedReference)})
	}
}

// stop ends the child and waits for it.
func (m *speedometer) stop() {
	m.ask.Close()
	m.cmd.Wait()
}

// since returns the quiet-host slowdown over the readings taken at or after
// t0 — the same quantile the timings beside them are reported at — or 1 if
// there is no reading. A single reading is as noisy as a single measurement;
// the statistic over a surface is what is steady.
func (m *speedometer) since(t0 time.Time) float64 {
	var s []float64
	for _, r := range m.readings {
		if !r.at.Before(t0) {
			s = append(s, r.slowdown)
		}
	}
	if len(s) == 0 {
		return 1
	}
	return quiet(s)
}

// speedFactor is what a host time measured at the given slowdown is divided
// by, and a rate per host second multiplied by.
func speedFactor(slowdown, damping float64) float64 { return math.Pow(slowdown, damping) }
