package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// cycleResult is one daemon lifecycle: start, ingest, steady window of
// classification passes, drain, and the correctness gate.
type cycleResult struct {
	setupS        float64
	ingestS       float64
	ingestRecords float64 // records committed inside the ingest phase
	ingestCPUS    float64
	ingestAlloc   float64
	ingestGC      float64
	ingestRows    float64 // feature rows classified during ingest

	passMS       []float64 // times between successive passes in the steady window
	steadyPasses float64   // passes behind the steady CPU, rows and log figures
	steadyCPUS   float64
	steadyRows   float64
	steadyLog    float64 // stderr bytes written in the steady window

	// incomplete marks a cycle whose ingest or steady window did not
	// finish; the run stops after it.
	incomplete bool

	peakRSSKB  float64
	clients    float64
	heapInuse  float64
	contention float64
	commits    float64
	drainS     float64

	// Correctness counters (failed_ops_ratio's numerator terms) and
	// denominator.
	records, passes                           float64
	dropped, classErrors, sinkFails, mismatch float64
	problems                                  []string
}

// failed is the numerator of failed_ops_ratio.
func (c *cycleResult) failed() float64 {
	return c.dropped + c.classErrors + c.sinkFails + c.mismatch
}

const (
	// timedPasses is how many successive classification passes a cycle
	// with a steady window times after ingest, and cpuPasses how many
	// more it takes the daemon's CPU over.
	timedPasses = 31
	cpuPasses   = 15
	// ingestPoll is the /metrics polling interval while ingest runs.
	// Each scrape costs the daemon about half a millisecond of CPU.
	ingestPoll = 20 * time.Millisecond
	// ingestDeadline bounds the ingest phase. Records not committed by
	// then count as dropped, and the run stops after that cycle.
	ingestDeadline = 60 * time.Second
	// memStatsAge exceeds how long qoeproxy caches runtime.MemStats for
	// its heap and GC series.
	memStatsAge = 110 * time.Millisecond
	// settle is how long a cycle without a steady window waits between
	// ingest and shutdown, so the sink writer and the pass in flight
	// finish before the drain is timed.
	settle = 300 * time.Millisecond
)

// runCycle boots qoeproxy on the prepared input and measures one
// lifecycle. With passes > 0, a steady window after ingest times that
// many successive passes, then takes per-pass CPU over cpuPasses more
// (steadyMax caps its length); otherwise the daemon only settles
// before it is stopped. A cycle whose ingest or steady window does not
// finish comes back incomplete, with the shortfall among its failures.
func runCycle(bin string, s spec, in *prepared, passes, cpuPasses int, steadyMax time.Duration) (*cycleResult, error) {
	sink := in.sinkPath
	os.Remove(sink)
	// Collect the benchmark's own garbage now rather than while the
	// daemon is being timed on the same CPUs.
	runtime.GC()
	dir := filepath.Dir(sink)
	d, tExec, tReady, err := startDaemon(bin, daemonArgs(s, in.inputPath, in.modelPath, sink), dir)
	if err != nil {
		return nil, err
	}
	stopped := false
	defer func() {
		if !stopped {
			d.kill()
		}
	}()
	pid := d.cmd.Process.Pid
	c := &cycleResult{setupS: tReady.Sub(tExec).Seconds(), records: float64(in.ref.records)}
	n := float64(in.ref.records)

	// Ingest phase: from the first scrape after readiness until every
	// record is committed. fresh is when the daemon last re-read the
	// MemStats behind its heap and GC series: at the first scrape, then
	// at each scrape where the allocation total moved.
	const txns, alloc = "qoeproxy_transactions_total", "qoeproxy_heap_alloc_bytes_total"
	cpu0, err := procCPU(pid)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	m0, err := d.scrape()
	if err != nil {
		return nil, err
	}
	fresh, prev := t0, m0
	var m1 sample
	var t1 time.Time
	var cpu1 float64
	for {
		time.Sleep(ingestPoll)
		cpu, err := procCPU(pid)
		if err != nil {
			return nil, err
		}
		t := time.Now()
		m, err := d.scrape()
		if err != nil {
			return nil, err
		}
		if m[alloc] != prev[alloc] {
			fresh = t
		}
		prev = m
		if m[txns] >= n || t.Sub(t0) > ingestDeadline {
			m1, t1, cpu1 = m, t, cpu
			break
		}
	}
	if m1[txns] < n {
		c.incomplete = true
		c.problems = append(c.problems, fmt.Sprintf("ingest did not finish in %s: %v of %v records committed", ingestDeadline, m1[txns], n))
	}
	c.ingestS = t1.Sub(t0).Seconds()
	c.ingestRecords = m1[txns] - m0[txns]
	c.ingestCPUS = cpu1 - cpu0
	c.ingestRows = m1["qoeproxy_qoe_predictions_total"] - m0["qoeproxy_qoe_predictions_total"]
	// The heap series end at the first scrape whose MemStats postdate
	// ingest end: m1 if it re-read them, else a scrape taken as soon as
	// the daemon's cache expires, under memStatsAge after ingest ends.
	mEnd := m1
	if fresh != t1 {
		time.Sleep(time.Until(fresh.Add(memStatsAge)))
		if mEnd, err = d.scrape(); err != nil {
			return nil, err
		}
	}
	c.ingestAlloc = mEnd[alloc] - m0[alloc]
	c.ingestGC = mEnd["qoeproxy_gc_runs_total"] - m0["qoeproxy_gc_runs_total"]

	if passes > 0 && !c.incomplete {
		if err := steadyWindow(d, c, s.backToBack, mEnd["qoeproxy_classification_runs_total"], passes, cpuPasses, steadyMax); err != nil {
			return nil, err
		}
	} else {
		time.Sleep(settle)
	}

	final, err := d.scrape()
	if err != nil {
		return nil, err
	}
	if c.peakRSSKB, err = procHWM(pid); err != nil {
		return nil, err
	}
	c.clients = final["qoeproxy_clients"]
	c.heapInuse = final["qoeproxy_heap_inuse_bytes"]
	c.contention = final["qoeproxy_ingest_contention_total"]
	c.commits = final[txns]
	c.passes = final["qoeproxy_classification_runs_total"]
	// A record dropped, or committed more than once, is one failure.
	c.dropped = math.Abs(n - final[txns])
	c.classErrors = final["qoeproxy_classification_errors_total"]
	c.sinkFails = final["qoeproxy_sink_write_failures_total"]
	if got := final["qoeproxy_session_boundaries_total"]; got != float64(in.ref.pushedBoundaries) {
		c.mismatch++
		c.problems = append(c.problems, fmt.Sprintf("qoeproxy_session_boundaries_total = %v, reference %d", got, in.ref.pushedBoundaries))
	}

	drain, err := d.stop(60 * time.Second)
	stopped = true
	if err != nil {
		return nil, err
	}
	c.drainS = drain.Seconds()

	stdout, err := os.ReadFile(d.stdoutPath)
	if err != nil {
		return nil, err
	}
	bad := in.ref.checkSummary(stdout)
	c.mismatch += float64(len(bad))
	c.problems = append(c.problems, bad...)
	sinkBad, err := in.ref.checkSink(sink)
	if err != nil {
		return nil, err
	}
	if sinkBad > 0 {
		c.mismatch += float64(sinkBad)
		c.problems = append(c.problems, fmt.Sprintf("sink CSV: %d lines missing or unexpected", sinkBad))
	}
	if c.dropped != 0 || c.classErrors != 0 || c.sinkFails != 0 {
		c.problems = append(c.problems, fmt.Sprintf("%v of %v records committed, %v classification errors, %v sink write failures",
			final[txns], n, c.classErrors, c.sinkFails))
	}
	for _, f := range []string{sink, d.stdoutPath} {
		os.Remove(f)
	}
	return c, nil
}

// steadyWindow measures classification passes over the static
// post-ingest state into c, starting from the runs counter's value. A
// window that runs out of time marks c incomplete and counts one
// mismatch.
func steadyWindow(d *daemon, c *cycleResult, backToBack bool, runs float64, passes, cpuPasses int, steadyMax time.Duration) error {
	// Steady window, first part: time each pass. Back-to-back passes
	// are the gaps between successive increments of the runs counter.
	// Otherwise the gap is the tick, and a pass is the daemon's CPU
	// time between the increments: the passes are apart, so that is one
	// pass's work plus the scrapes'. The pass in flight at the start is
	// skipped.
	poll := 5 * time.Millisecond
	if !backToBack {
		// Polling need only tell the passes apart; polling slower keeps
		// the scrapes' CPU small next to a pass's.
		poll = 20 * time.Millisecond
	}
	pid := d.cmd.Process.Pid
	steadyEnd := time.Now().Add(steadyMax)
	stall := func(what string) error {
		c.incomplete = true
		c.mismatch++
		c.problems = append(c.problems, fmt.Sprintf("steady window: %s in %s", what, steadyMax))
		return nil
	}
	var mA sample
	var cpuA, logA float64
	var first, last time.Time
	for len(c.passMS) < passes {
		if time.Now().After(steadyEnd) {
			return stall(fmt.Sprintf("timed %d of %d classification passes", len(c.passMS), passes))
		}
		time.Sleep(poll)
		cpu, err := procCPU(pid)
		if err != nil {
			return err
		}
		logb := float64(d.logBytes.Load())
		t := time.Now()
		m, err := d.scrape()
		if err != nil {
			return err
		}
		r := m["qoeproxy_classification_runs_total"]
		if r == runs {
			continue
		}
		if mA == nil {
			first = t
		} else {
			// A poll that saw several increments splits them evenly.
			pass := t.Sub(last).Seconds() * 1e3 / (r - runs)
			if !backToBack {
				pass = (cpu - cpuA) * 1e3 / (r - runs)
			}
			for k := 0.0; k < r-runs; k++ {
				c.passMS = append(c.passMS, pass)
			}
		}
		runs, last = r, t
		mA, cpuA, logA = m, cpu, logb
	}

	// Second part: CPU, rows and log bytes over cpuPasses more passes,
	// scraping only near the end so that the scrapes' own CPU stays out
	// of the per-pass figure.
	gap := last.Sub(first) / time.Duration(len(c.passMS))
	time.Sleep(time.Duration(cpuPasses-1) * gap)
	for {
		if time.Now().After(steadyEnd) {
			return stall("classification passes stalled")
		}
		cpu, err := procCPU(pid)
		if err != nil {
			return err
		}
		logb := float64(d.logBytes.Load())
		m, err := d.scrape()
		if err != nil {
			return err
		}
		if r := m["qoeproxy_classification_runs_total"]; r >= runs+float64(cpuPasses) {
			c.steadyPasses = r - runs
			c.steadyCPUS = cpu - cpuA
			c.steadyRows = m["qoeproxy_qoe_predictions_total"] - mA["qoeproxy_qoe_predictions_total"]
			c.steadyLog = logb - logA
			break
		}
		time.Sleep(poll)
	}
	return nil
}
