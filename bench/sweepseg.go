package main

import (
	"bytes"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"strconv"
	"time"
)

// invocation is one finished tomx child.
type invocation struct {
	wall      time.Duration
	cpu       time.Duration
	rssMB     float64
	stdout    []byte
	hits      int
	simulated int
}

var cacheLine = regexp.MustCompile(`(?m)^cache: dir=\S* hits=(\d+) simulated=(\d+)$`)

// tomx runs the built tomx binary to completion and reads its exit status,
// resource usage and the machine-parseable "cache:" line on stderr.
func (r *run) tomx(sc scope, span string, args ...string) (invocation, error) {
	var inv invocation
	var stdout, stderr bytes.Buffer
	cmd := exec.CommandContext(r.ctx, r.bins.tomx, args...)
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	var err error
	inv.wall = sc.timed(span, func() {
		if err = cmd.Start(); err == nil {
			rss := watchRSS(cmd.Process.Pid)
			err = cmd.Wait()
			inv.rssMB = rss()
		}
	})
	if err != nil {
		return inv, fmt.Errorf("tomx %v: %w: %s", args, err, bytes.TrimSpace(stderr.Bytes()))
	}
	inv.stdout = stdout.Bytes()
	inv.cpu = cmd.ProcessState.UserTime() + cmd.ProcessState.SystemTime()
	if m := cacheLine.FindSubmatch(stderr.Bytes()); m != nil {
		inv.hits, _ = strconv.Atoi(string(m[1]))
		inv.simulated, _ = strconv.Atoi(string(m[2]))
	}
	return inv, nil
}

// sweepSurface runs the tomx experiment cold (a fresh cache directory each
// time) until the surface's deadline and then warm over the last directory.
// Cold must simulate everything and warm nothing, and every invocation must
// print the first one's tables byte for byte.
func (r *run) sweepSurface() {
	sc := r.root.open("surface.sweep")
	defer sc.close()
	start := time.Now()
	args := func(dir string) []string {
		return []string{"-exp", sweepExp, "-scale", strconv.FormatFloat(r.in.SweepScale, 'g', -1, 64),
			"-q", "-cache", "-cache-dir", dir}
	}
	var first []byte
	var cold, warm []invocation
	var dir string
	check := func(kind string, inv invocation, err error) bool {
		switch {
		case err != nil:
		case kind == "cold" && (inv.simulated == 0 || inv.hits != 0):
			err = fmt.Errorf("cold invocation reported hits=%d simulated=%d", inv.hits, inv.simulated)
		case kind == "warm" && (inv.simulated != 0 || inv.hits == 0):
			err = fmt.Errorf("warm invocation reported hits=%d simulated=%d", inv.hits, inv.simulated)
		case first == nil:
			first = inv.stdout
		case !bytes.Equal(first, inv.stdout):
			err = fmt.Errorf("tables differ from the first cold invocation's")
		}
		r.op(err == nil, "tomx -exp %s %s: %v", sweepExp, kind, err)
		return err == nil
	}

	for len(cold) < r.size.sweepColds || (r.more() && r.roomFor(cold[len(cold)-1].wall)) {
		dir = r.tempDir("sweep")
		r.pace()
		inv, err := r.tomx(sc, "tomx.cold", args(dir)...)
		if !check("cold", inv, err) {
			break
		}
		cold = append(cold, inv)
	}
	for len(cold) > 0 && len(warm) < r.size.sweepWarms {
		if len(warm)%10 == 0 {
			r.pace() // a warm invocation takes a fifth of a reading
		}
		inv, err := r.tomx(sc, "tomx.warm", args(dir)...)
		if !check("warm", inv, err) {
			break
		}
		warm = append(warm, inv)
	}
	if len(cold) == 0 || len(warm) == 0 {
		return
	}

	pick := func(invs []invocation, f func(invocation) float64) []float64 {
		var out []float64
		for _, inv := range invs {
			out = append(out, f(inv))
		}
		return out
	}
	r.paceSince(start, workDamping)
	rss := func(inv invocation) float64 { return inv.rssMB }
	coldS := pick(cold, func(inv invocation) float64 { return seconds(inv.wall) })
	warmMS := pick(warm, func(inv invocation) float64 { return millis(inv.wall) })
	r.setSamples("sweep_cold_s", quiet(coldS), coldS)
	r.setSamples("sweep_warm_ms", quiet(warmMS), warmMS)
	// A short Go process peaks at one of two levels, depending on when its
	// collector first ran; a median flips between them, the mean moves half
	// as much.
	r.setSamples("sweep_peak_rss_mb", sum(pick(cold, rss))/float64(len(cold)), pick(cold, rss))
	if !r.traced {
		return
	}

	var starts []float64
	for i := 0; i < 5; i++ {
		inv, err := r.tomx(sc, "tomx.start", "-exp", "area")
		r.op(err == nil, "tomx -exp area: %v", err)
		starts = append(starts, millis(inv.wall))
	}
	r.setSamples("tomx.start_ms", median(starts), starts)
	r.set("tomx.cpu_s", median(pick(cold, func(inv invocation) float64 { return seconds(inv.cpu) })))
	r.set("tomx.warm_rss_mb", median(pick(warm, rss)))
	r.set("tomx.runs_simulated", float64(cold[0].simulated))
	r.set("tomx.cache_bytes", float64(dirBytes(dir)))

	// -exp all is what a user reproducing the paper runs, and the only
	// invocation that simulates in parallel (198 runs on core.Scheduler at
	// GOMAXPROCS). At ten seconds it is too long to repeat inside a run, so
	// it is run once here, cold and warm.
	all := append([]string{"-exp", "all"}, args(r.tempDir("sweep-all"))[2:]...)
	allCold, err := r.tomx(sc, "tomx.all_cold", all...)
	r.op(err == nil && allCold.simulated > 0 && allCold.hits == 0,
		"tomx -exp all cold: %v, hits=%d simulated=%d", err, allCold.hits, allCold.simulated)
	allWarm, err := r.tomx(sc, "tomx.all_warm", all...)
	r.op(err == nil && allWarm.simulated == 0 && bytes.Equal(allCold.stdout, allWarm.stdout),
		"tomx -exp all warm: %v, simulated=%d, tables equal %t", err, allWarm.simulated, bytes.Equal(allCold.stdout, allWarm.stdout))
	r.set("tomx.all_cold_s", seconds(allCold.wall))
	r.set("tomx.all_warm_s", seconds(allWarm.wall))
	r.set("tomx.parallel_eff", ratio(seconds(allCold.cpu), seconds(allCold.wall)*float64(runtime.NumCPU())))

	r.coreLayer(sc)
}

var vmHWM = regexp.MustCompile(`VmHWM:\s+(\d+) kB`)

// watchRSS polls a child's peak resident set (VmHWM in /proc/<pid>/status)
// until the returned function is called, which yields the last reading in
// MB. The rusage a parent gets from wait4 cannot be used: a child started
// with vfork inherits the parent's own resident set as its high-water mark,
// so every small child of this process would read as this process.
func watchRSS(pid int) (stop func() float64) {
	path := fmt.Sprintf("/proc/%d/status", pid)
	done, result := make(chan struct{}), make(chan float64)
	go func() {
		peakKB := 0.0
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			if data, err := os.ReadFile(path); err == nil {
				if m := vmHWM.FindSubmatch(data); m != nil {
					kb, _ := strconv.ParseFloat(string(m[1]), 64)
					peakKB = max(peakKB, kb)
				}
			}
			select {
			case <-done:
				result <- peakKB / 1024
				return
			case <-tick.C:
			}
		}
	}()
	return func() float64 { close(done); return <-result }
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) int64 {
	var n int64
	filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && d.Type().IsRegular() {
			if info, err := d.Info(); err == nil {
				n += info.Size()
			}
		}
		return nil
	})
	return n
}
