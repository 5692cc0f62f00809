package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os/exec"
	"strconv"
	"syscall"
	"time"
)

// server is one tomserve child.
type server struct {
	cmd     *exec.Cmd
	url     string
	stderr  bytes.Buffer
	peakRSS func() float64 // stops the watcher started with the process
}

// startServer spawns tomserve on a free loopback port over dir and waits
// until /healthz answers 200; the returned duration is that wait.
func (r *run) startServer(sc scope, dir string) (*server, time.Duration, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, 0, err
	}
	addr := ln.Addr().String()
	ln.Close()

	s := &server{url: "http://" + addr}
	s.cmd = exec.CommandContext(r.ctx, r.bins.tomserve, "-addr", addr, "-cache-dir", dir,
		"-scale", strconv.FormatFloat(r.in.ServeScale, 'g', -1, 64))
	s.cmd.Stderr = &s.stderr
	probe := &http.Client{Timeout: time.Second}
	wait := sc.timed("tomserve.start", func() {
		if err = s.cmd.Start(); err != nil {
			return
		}
		s.peakRSS = watchRSS(s.cmd.Process.Pid)
		for deadline := time.Now().Add(20 * time.Second); ; time.Sleep(time.Millisecond) {
			resp, herr := probe.Get(s.url + "/healthz")
			if herr == nil {
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					return
				}
			}
			if time.Now().After(deadline) {
				err = fmt.Errorf("tomserve not healthy after 20 s: %v", herr)
				return
			}
		}
	})
	probe.CloseIdleConnections()
	if err != nil {
		if s.cmd.Process != nil {
			s.cmd.Process.Kill()
			s.cmd.Wait()
			s.peakRSS()
		}
		return nil, wait, err
	}
	r.servers = append(r.servers, s)
	return s, wait, nil
}

// stop drains the server with SIGTERM, waits for it to exit and returns its
// peak resident set.
func (s *server) stop() (rssMB float64, err error) {
	if s.cmd.ProcessState != nil {
		return 0, nil
	}
	s.cmd.Process.Signal(syscall.SIGTERM)
	err = s.cmd.Wait()
	rssMB = s.peakRSS()
	if err != nil {
		err = fmt.Errorf("tomserve exit: %w: %s", err, bytes.TrimSpace(s.stderr.Bytes()))
	}
	return rssMB, err
}

// counters reads the server's /metrics counters.
func (s *server) counters(c *http.Client) (map[string]uint64, error) {
	resp, err := c.Get(s.url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var snap struct {
		Counters map[string]uint64 `json:"counters"`
	}
	err = json.NewDecoder(resp.Body).Decode(&snap)
	return snap.Counters, err
}

type runReq struct {
	Workload string `json:"workload"`
	Config   string `json:"config"`
}

// slot is one run's place in a batch response; Result stays raw so that
// equality is judged on the bytes the server sent.
type slot struct {
	Digest string          `json:"digest"`
	Source string          `json:"source"`
	Error  string          `json:"error"`
	Result json.RawMessage `json:"result"`
}

// reply is one finished POST /v1/runs.
type reply struct {
	latency time.Duration
	status  int
	body    []byte
	err     error
}

// post sends the cells as one batch and reads the whole response; the
// latency covers both.
func post(sc scope, span string, c *http.Client, url string, cells []cell) reply {
	req := struct {
		Runs []runReq `json:"runs"`
	}{}
	for _, cl := range cells {
		req.Runs = append(req.Runs, runReq{cl.app, string(cl.cfg)})
	}
	payload, _ := json.Marshal(req) // strings only: cannot fail
	var rep reply
	rep.latency = sc.timed(span, func() {
		resp, err := c.Post(url+"/v1/runs", "application/json", bytes.NewReader(payload))
		if err != nil {
			rep.err = err
			return
		}
		defer resp.Body.Close()
		rep.status = resp.StatusCode
		rep.body, rep.err = io.ReadAll(resp.Body)
	})
	return rep
}

// checkSlots judges one reply: each of the n requested runs is an operation
// that fails on a transport error, a non-200 status (429 included), a slot
// error, the wrong cache layer for the phase, or result bytes that differ
// from the first result seen for the same digest. It returns how many
// failed; results records first sightings.
func checkSlots(rep reply, n int, wantSource string, results map[string][]byte) (failed int, why string) {
	if rep.err != nil {
		return n, rep.err.Error()
	}
	if rep.status != http.StatusOK {
		return n, fmt.Sprintf("status %d", rep.status)
	}
	var dec struct {
		Results []slot `json:"results"`
	}
	if err := json.Unmarshal(rep.body, &dec); err != nil || len(dec.Results) != n {
		return n, fmt.Sprintf("response has %d slots for %d runs (%v)", len(dec.Results), n, err)
	}
	for _, s := range dec.Results {
		prev, seen := results[s.Digest]
		switch {
		case s.Error != "":
			why = s.Error
		case s.Source != wantSource:
			why = fmt.Sprintf("source %q, want %q", s.Source, wantSource)
		case len(s.Result) == 0 || s.Digest == "":
			why = "empty result"
		case !seen:
			results[s.Digest] = s.Result
			continue
		case bytes.Equal(prev, s.Result):
			continue
		default:
			why = "result bytes differ from the first response for digest " + s.Digest[:8]
		}
		failed++
	}
	return failed, why
}

// Phase B requests share one median per hitBlock. tailBlock is the fewest
// requests that leave ten samples beyond a 99th percentile, so no round asks
// for fewer.
const (
	hitBlock  = 250
	tailBlock = 1000
)

// serveSamples is what the service surface's rounds collect. Latencies are
// kept pooled (for the traced pass's tails) and as one statistic per block —
// a round, a restart, or hitBlock requests — of which the run reports the
// quiet-host value.
type serveSamples struct {
	startMS, hitMS, diskHitMS, underMissMS []float64 // pooled

	batchColdS, underLoadS []float64 // one per round
	hitP50MS               []float64 // one per hitBlock requests
	diskHitP50MS           []float64 // one per restart
	underMissP50MS         []float64 // one per round, time-weighted
	hitsDuringMiss         []float64 // one per round
	peakRSS                float64
	rejected               int
	// First round only.
	cyclesTotal int64
	respBytes   int
	simulated   uint64
	hits        uint64
}

// serveSurface runs rounds of the four service phases against a fresh cache
// directory and server each round. It is a closed loop: one client, plus a
// second one only while phase D's miss batch is in flight.
func (r *run) serveSurface() {
	sc := r.root.open("surface.serve")
	defer sc.close()
	begin := time.Now()
	population := cross(r.w.apps, simConfigs)
	others := cross(r.w.apps, otherConfigs(simConfigs))
	c1 := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}}
	c2 := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}}
	results := map[string][]byte{}
	var ss serveSamples

	rounds := 0
	var last time.Duration
	for rounds < r.size.serveRounds || (r.more() && r.roomFor(last)) {
		rounds++
		rsc := sc.open(fmt.Sprintf("round %d", rounds))
		start := time.Now()
		err := r.serveRound(rsc, rounds, population, others, c1, c2, results, &ss)
		last = time.Since(start)
		rsc.close()
		if err != nil {
			r.op(false, "serve round %d: %v", rounds, err)
			break
		}
	}
	if len(ss.batchColdS) == 0 || len(ss.underMissP50MS) == 0 {
		return
	}

	r.paceSince(begin, serviceDamping)
	r.setSamples("batch_cold_s", quiet(ss.batchColdS), ss.batchColdS)
	r.setSamples("disk_hit_ms_p50", quiet(ss.diskHitP50MS), ss.diskHitP50MS)
	r.setSamples("hit_under_miss_ms_p50", quiet(ss.underMissP50MS), ss.underMissP50MS)
	r.setSamples("batch_under_load_s", quiet(ss.underLoadS), ss.underLoadS)
	r.damping = hitDamping
	r.setSamples("hit_ms_p50", quiet(ss.hitP50MS), ss.hitP50MS)
	if !r.traced {
		return
	}
	r.set("tomserve.hit_ms_p90", tailPercentile(ss.hitMS, 0.90))
	r.set("tomserve.hit_ms_p99", tailPercentile(ss.hitMS, 0.99))
	r.damping = serviceDamping
	r.setSamples("tomserve.start_ms", median(ss.startMS), ss.startMS)
	r.set("tomserve.batch_cells_per_s", ratio(float64(len(population)), median(ss.batchColdS)))
	r.set("tomserve.batch_cycles_total", float64(ss.cyclesTotal))
	r.set("tomserve.disk_hit_ms_p90", tailPercentile(ss.diskHitMS, 0.90))
	r.set("tomserve.hit_under_miss_ms_p90", timeWeightedQuantile(ss.underMissMS, 0.90))
	r.set("tomserve.hit_under_miss_ms_p99", timeWeightedQuantile(ss.underMissMS, 0.99))
	r.set("tomserve.hits_during_miss", median(ss.hitsDuringMiss))
	r.set("tomserve.resp_bytes_per_run", ratio(float64(ss.respBytes), float64(len(population))))
	r.set("tomserve.rejected_429", float64(ss.rejected))
	r.set("tomserve.peak_rss_mb", ss.peakRSS)
	r.set("tomserve.runs_simulated", float64(ss.simulated))
	r.set("tomserve.runs_hits", float64(ss.hits))
	if r.in.Seed == 1 {
		r.witness(ss.cyclesTotal)
	}
}

// serveRound is one pass of phases A to D.
func (r *run) serveRound(sc scope, id int, population, others []cell, c1, c2 *http.Client,
	results map[string][]byte, ss *serveSamples) error {
	first := id == 1
	dir := r.tempDir("serve")
	var srv *server
	start := func() (err error) {
		var wait time.Duration
		srv, wait, err = r.startServer(sc, dir)
		ss.startMS = append(ss.startMS, millis(wait))
		return err
	}
	// stop reads the counters (first round), then drains the server.
	stop := func() error {
		if first {
			if ctr, err := srv.counters(c1); err == nil {
				ss.simulated += ctr["runs.simulated"]
				ss.hits += ctr["runs.hits"]
				ss.rejected += int(ctr["http.rejected"])
			}
		}
		c1.CloseIdleConnections()
		c2.CloseIdleConnections()
		rss, err := srv.stop()
		ss.peakRSS = max(ss.peakRSS, rss)
		return err
	}
	judge := func(phase string, rep reply, n int, source string) {
		failed, why := checkSlots(rep, n, source, results)
		r.ops(n, failed, "serve round %d phase %s: %s", id, phase, why)
	}

	if err := start(); err != nil {
		return err
	}
	r.pace()

	// A: the whole population as one batch on an empty cache — all misses.
	rep := post(sc.withRun(id*100000), "tomserve.batch_cold", c1, srv.url, population)
	judge("A", rep, len(population), "simulated")
	ss.batchColdS = append(ss.batchColdS, seconds(rep.latency))
	if first {
		ss.respBytes = len(rep.body)
		ss.cyclesTotal = sumCycles(rep.body)
	}

	// B: single-run requests drawn from the population — memo hits.
	roundHits := len(ss.hitMS)
	for i := 0; i < r.size.serveHits; i++ {
		if i%hitBlock == 0 {
			r.pace()
		}
		cl := population[r.in.rng.Intn(len(population))]
		rep := post(sc.withRun(id*100000+1+i), "tomserve.hit", c1, srv.url, []cell{cl})
		judge("B", rep, 1, "memo")
		ss.hitMS = append(ss.hitMS, millis(rep.latency))
		n := len(ss.hitMS)
		if (n-roundHits)%hitBlock == 0 {
			ss.hitP50MS = append(ss.hitP50MS, median(ss.hitMS[n-hitBlock:]))
		}
	}

	// C: restart over the same directory; the first touch of each cell is a
	// disk hit.
	for k := 0; k < r.size.serveRestarts; k++ {
		if err := stop(); err != nil {
			return err
		}
		if err := start(); err != nil {
			return err
		}
		r.pace()
		first := len(ss.diskHitMS)
		for i, cl := range shuffled(r.in.rng, population) {
			rep := post(sc.withRun(id*100000+50000+k*1000+i), "tomserve.disk_hit", c1, srv.url, []cell{cl})
			judge("C", rep, 1, "disk")
			ss.diskHitMS = append(ss.diskHitMS, millis(rep.latency))
		}
		ss.diskHitP50MS = append(ss.diskHitP50MS, median(ss.diskHitMS[first:]))
	}

	// D: client 1 posts a miss batch from the other configurations while
	// client 2 keeps asking for cells that are in the memo.
	r.pace()
	missBatch := shuffled(r.in.rng, others)
	done := make(chan reply)
	dsc := sc.withRun(id*100000 + 90000)
	go func() { done <- post(dsc, "tomserve.batch_under_load", c1, srv.url, missBatch) }()
	hits, firstHit := 0, len(ss.underMissMS)
	for waiting := true; waiting; {
		cl := population[r.in.rng.Intn(len(population))]
		hit := post(dsc, "tomserve.hit_under_miss", c2, srv.url, []cell{cl})
		select {
		case rep = <-done:
			waiting = false // this hit may have outlived the batch: not counted
		default:
			judge("D hit", hit, 1, "memo")
			ss.underMissMS = append(ss.underMissMS, millis(hit.latency))
			hits++
		}
	}
	judge("D batch", rep, len(missBatch), "simulated")
	ss.underLoadS = append(ss.underLoadS, seconds(rep.latency))
	ss.hitsDuringMiss = append(ss.hitsDuringMiss, float64(hits))
	if hits > 0 {
		ss.underMissP50MS = append(ss.underMissP50MS, timeWeightedQuantile(ss.underMissMS[firstHit:], 0.50))
	}

	return stop()
}

// sumCycles totals Stats.Cycles over a batch response's results.
func sumCycles(body []byte) int64 {
	var dec struct {
		Results []struct {
			Result *struct {
				Stats struct{ Cycles int64 }
			} `json:"result"`
		} `json:"results"`
	}
	if json.Unmarshal(body, &dec) != nil {
		return 0
	}
	var total int64
	for _, s := range dec.Results {
		if s.Result != nil {
			total += s.Result.Stats.Cycles
		}
	}
	return total
}
