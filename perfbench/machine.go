package main

import (
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"

	"tppsim/internal/core"
	"tppsim/internal/sim"
	"tppsim/internal/tier"
	"tppsim/internal/trace"
	"tppsim/internal/vmstat"
	"tppsim/internal/workload"
)

// machineSpec is one workload that steps a single machine. Every machine
// runs TPP on the paper's 2:1 CXL box, built from the tier preset, and
// steps serially except in the parallel check run.
type machineSpec struct {
	name string
	huge bool
	// checkMinutes is the simulated length of the same-seed runs, whose
	// ticks past the fill are the ones timed.
	checkMinutes int
	// registry makes the traced run also time every experiments registry
	// spec (experiments.<ID>.wall_s).
	registry bool
	// newWorkload builds a fresh workload instance for seed.
	newWorkload func(seed uint64) workload.Workload
}

// Machine sizes. A simulator whose state outgrows a core's private
// caches runs at the speed of the shared last-level cache, which other
// tenants of a shared host thrash. On a 2-vCPU virtual machine the
// five-seed spreads of the tick times were 0.15 to 0.24 for Cache1 at
// the default 96 Ki pages (about 5 MB of simulator state) against 0.03
// to 0.05 at 16 Ki pages (about 0.8 MB), and in huge-page mode 0.07 to
// 0.09 at 512 Ki pages against 0.02 to 0.04 at 256 Ki pages (512 frames).
// Every machine draws the simulator's default 2000 accesses per tick: at
// 8192 the huge-page ticks were so alike that their p99 measured the
// host's disturbance rather than the simulator, and spread 0.24 over ten
// seeds against 0.10 for the p50.
const (
	smallPages        = 16 << 10
	hugeWorkloadPages = 256 << 10
)

var machineSpecs = []*machineSpec{
	{
		name:         "cache1-steady",
		checkMinutes: 60,
		registry:     true,
		newWorkload:  func(uint64) workload.Workload { return workload.Cache1(smallPages) },
	},
	{
		name:         "advchurn",
		checkMinutes: 25,
		newWorkload:  advChurn,
	},
	{
		name:         "cache1-huge",
		huge:         true,
		checkMinutes: 30,
		newWorkload:  func(uint64) workload.Workload { return workload.Cache1(hugeWorkloadPages) },
	},
}

func machineSpecByName(name string) *machineSpec {
	for _, s := range machineSpecs {
		if s.name == name {
			return s
		}
	}
	panic("perfbench: no machine workload " + name)
}

// advTrace is the AdvChurn event stream generated from the benchmark
// seed. Generation is input preparation, not simulator set-up, so it is
// built once per process, before anything is timed.
var advTrace struct {
	seed uint64
	tr   *trace.Trace
}

// advChurn returns an independent replay cursor over the seed's trace.
func advChurn(seed uint64) workload.Workload {
	if advTrace.tr == nil || advTrace.seed != seed {
		advTrace.seed = seed
		advTrace.tr = trace.AdversarialChurn(trace.GenConfig{Pages: smallPages, Seed: seed})
	}
	return advTrace.tr.Replayer(trace.ReplayOptions{Loop: true})
}

// config is the machine the workload runs with the given stage worker
// count (0 is serial).
func (s *machineSpec) config(seed uint64, workers int) sim.Config {
	topo := tier.PresetCXL(2, 1)
	topo.HugePages = s.huge
	return sim.Config{
		Seed:     seed,
		Policy:   core.TPP(),
		Workload: s.newWorkload(seed),
		Topology: topo,
		Minutes:  s.checkMinutes,
		Workers:  workers,
	}
}

// buildFilled assembles a machine and steps it through the workload's
// warm-up fill, returning it with the host time that took (setup_s).
// With a tracer it records the two calls as spans under parent.
func buildFilled(cfg sim.Config, t *tracer, parent int32) (*sim.Machine, float64, error) {
	start := time.Now()
	sp := t.begin("sim.New", parent)
	m, err := sim.New(cfg)
	t.end(sp)
	if err != nil {
		return nil, 0, fmt.Errorf("sim.New: %w", err)
	}
	sp = t.begin("fill.Machine.Step", parent)
	for fill := cfg.Workload.WarmupTicks(); m.Tick() < fill; {
		m.Step()
	}
	t.end(sp)
	return m, time.Since(start).Seconds(), nil
}

// checkOutcome is one fixed-length run: its host times, its simulated
// results, and the global vmstat counters a same-seed run must
// reproduce.
type checkOutcome struct {
	// newUs, tickUs and runUs are the host times in µs of its parts:
	// sim.New, each Step from the first tick, and the Machine.Run call
	// that finishes it. The first fill ticks are the warm-up fill.
	newUs, runUs float64
	tickUs       []float64
	fill         int
	setup        float64
	ticks        int64
	failed       bool
	why          string
	throughput   float64
	localFrac    float64
	latencyNs    float64
	bytesPage    float64
	stat         vmstat.Snapshot
}

func (c *checkOutcome) sameResults(o *checkOutcome) bool {
	return c.failed == o.failed && c.throughput == o.throughput && c.localFrac == o.localFrac &&
		c.latencyNs == o.latencyNs && c.stat.Equal(o.stat)
}

// checkRun builds a machine and steps it one timed Step at a time
// through its fill and the rest of its checkMinutes, then finishes it
// with Machine.Run, which returns the results.
func (s *machineSpec) checkRun(seed uint64, workers int, tickUs []float64) (*checkOutcome, error) {
	cfg := s.config(seed, workers)
	start := time.Now()
	m, err := sim.New(cfg)
	if err != nil {
		return nil, fmt.Errorf("sim.New: %w", err)
	}
	out := &checkOutcome{newUs: usSince(start), fill: int(cfg.Workload.WarmupTicks())}
	out.setup = out.newUs / 1e6 // a workload without a fill
	for end := uint64(cfg.Minutes) * workload.TicksPerMinute; m.Tick() < end; {
		if failed, _ := m.Failed(); failed {
			break
		}
		t0 := time.Now()
		m.Step()
		tickUs = append(tickUs, usSince(t0))
		if len(tickUs) == out.fill {
			out.setup = time.Since(start).Seconds()
		}
	}
	t0 := time.Now()
	res := m.Run()
	out.runUs = usSince(t0)
	out.tickUs = tickUs
	out.ticks = int64(m.Tick())
	out.failed, out.why = m.Failed()
	out.throughput = res.NormalizedThroughput
	out.localFrac = res.AvgLocalTraffic
	out.latencyNs = res.AvgLatencyNs
	out.bytesPage = res.MemStats.BytesPerPage
	out.stat = m.Stat().Snapshot()
	return out, nil
}

// usSince is the host time since t0 in µs.
func usSince(t0 time.Time) float64 { return float64(time.Since(t0).Nanoseconds()) / 1e3 }

// checkRuns is how many serial same-seed runs a run makes before the
// parallel one; an untraced run goes on with serial runs until its
// window is over.
const checkRuns = 5

// checker makes a run's same-seed runs. Each run's ticks are operations;
// a failed machine, or results that differ from the first run's, fail
// all of that run's ticks.
type checker struct {
	s     *machineSpec
	o     opts
	rep   *report
	first *checkOutcome
	// setups are the serial runs' set-up times; minNew, minUs and minRun
	// are each part's fastest time across them.
	setups         []float64
	minNew, minRun float64
	minUs          []float64
	serial         int
	buf            []float64
}

// jobs lists the worker count of the first runs: checkRuns serial ones,
// then one with parallel stage workers, which must reproduce them bit for
// bit.
func (c *checker) jobs() []int {
	ws := make([]int, checkRuns, checkRuns+1)
	return append(ws, parallelWorkers)
}

// parallelWorkers is the stage worker count of the parallel check run:
// the CPUs a 2-CPU host has.
const parallelWorkers = 2

func (c *checker) run(workers int) error {
	runtime.GC() // start from a collected heap, untimed
	out, err := c.s.checkRun(c.o.seed, workers, c.buf[:0])
	if err != nil {
		return err
	}
	c.buf = out.tickUs
	c.rep.attempted += out.ticks
	switch {
	case out.failed:
		c.rep.fail(out.ticks, "check run (workers=%d): machine failed at tick %d: %s", workers, out.ticks, out.why)
	case c.first != nil && !out.sameResults(c.first):
		c.rep.fail(out.ticks, "check run (workers=%d): results differ from the first run on the same seed", workers)
	}
	if c.first == nil {
		c.first = out
	}
	if workers != 0 {
		return nil
	}
	c.setups = append(c.setups, out.setup)
	if c.serial == 0 {
		c.minNew, c.minRun = out.newUs, out.runUs
		c.minUs = slices.Clone(out.tickUs)
	}
	c.minNew, c.minRun = min(c.minNew, out.newUs), min(c.minRun, out.runUs)
	for i := range min(len(c.minUs), len(out.tickUs)) {
		c.minUs[i] = min(c.minUs[i], out.tickUs[i])
	}
	c.serial++
	return nil
}

// rssRuns is how many fresh processes peak_rss_mb is the median of, and
// rssTicks how many ticks each steps after its fill.
const (
	rssRuns  = 5
	rssTicks = 60
)

// rssChild is the child side of peakRSS: set up the workload's machine,
// step it rssTicks past the fill, so that the process's peak RSS is the
// simulator's, and print that peak in MiB.
func rssChild(o opts) error {
	s := machineSpecByName(o.workload)
	m, _, err := buildFilled(s.config(o.seed, 0), nil, -1)
	if err != nil {
		return err
	}
	for i := 0; i < rssTicks; i++ {
		m.Step()
	}
	mb, err := peakRSSMB()
	if err != nil {
		return err
	}
	fmt.Println(mb)
	return nil
}

// peakRSS runs rssChild in a fresh process and returns the peak RSS it
// printed, in MiB.
func peakRSS(o opts) (float64, error) {
	self, err := os.Executable()
	if err != nil {
		return 0, err
	}
	cmd := exec.Command(self, "--rss-run", "--workload", o.workload, "--seed", strconv.FormatUint(o.seed, 10))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return 0, fmt.Errorf("rss run: %w", err)
	}
	mb, err := strconv.ParseFloat(strings.TrimSpace(string(out)), 64)
	if err != nil {
		return 0, fmt.Errorf("rss run: %w", err)
	}
	return mb, nil
}

// benchMachine runs one machine workload: either the untraced runs
// (end-to-end metrics) or the traced run (per-layer metrics).
func benchMachine(s *machineSpec, o opts) (*report, error) {
	rep := newReport()
	s.newWorkload(o.seed) // prepare the input before anything is timed
	if o.trace {
		return rep, traceMachine(s, o, rep)
	}
	// The same-seed runs go on, one after another, until the window is
	// over. The simulator is deterministic, so a part of a run (sim.New,
	// one tick, the finishing Run call) does the same work in every run,
	// and any difference in its host time is the host's, which on a
	// shared machine only ever slows work down, in bursts and in drifts
	// over seconds. So each part's time is its fastest across the runs.
	end := deadline(o.seconds)
	var rss []float64
	for i := 0; i < rssRuns; i++ {
		mb, err := peakRSS(o)
		if err != nil {
			return nil, err
		}
		rss = append(rss, mb)
	}
	c := &checker{s: s, o: o, rep: rep}
	jobs := c.jobs()
	for i := 0; i < len(jobs) || time.Now().Before(end); i++ {
		workers := 0
		if i < len(jobs) {
			workers = jobs[i]
		}
		if err := c.run(workers); err != nil {
			return nil, err
		}
	}
	var fillUs, timedUs float64
	for i, us := range c.minUs {
		if i < c.first.fill {
			fillUs += us
		} else {
			timedUs += us
		}
	}
	timed := slices.Clone(c.minUs[min(c.first.fill, len(c.minUs)):])
	if len(timed) == 0 {
		return nil, fmt.Errorf("no tick past the fill: %d-minute runs", s.checkMinutes)
	}
	rep.set("sim_s_per_s", float64(len(timed))*sim.TickSeconds/(timedUs/1e6))
	rep.set("tick_us_p50", quantile(timed, 0.50))
	rep.set("tick_us_p99", quantile(timed, 0.99))
	rep.set("wall_s", (c.minNew+fillUs+timedUs+c.minRun)/1e6)
	rep.set("setup_s", median(c.setups))
	rep.set("peak_rss_mb", median(rss))
	rep.set("sim_bytes_per_page", c.first.bytesPage)
	rep.set("model_throughput_pct", 100*c.first.throughput)
	rep.set("model_local_pct", 100*c.first.localFrac)
	rep.notef("runs: %d serial and 1 with Workers=%d, each %d simulated minutes: %d fill ticks, then %d timed",
		c.serial, parallelWorkers, s.checkMinutes, c.first.fill, len(timed))
	rep.notef("samples: setup=%d, rss=%d fresh processes of set-up plus %d ticks",
		len(c.setups), len(rss), rssTicks)
	return rep, nil
}

// stepWindow steps m back to back for the given host seconds (or until
// it fails), appending each Step's host time in microseconds to
// samples, and returns them with the seconds elapsed. With a tracer
// every Step is a span.
func stepWindow(m *sim.Machine, samples []float64, seconds float64, t *tracer, parent int32) ([]float64, float64) {
	start := time.Now()
	end := deadline(seconds)
	for {
		t0 := time.Now()
		if !t0.Before(end) {
			break
		}
		sp := t.begin("Machine.Step", parent)
		m.Step()
		t.end(sp)
		samples = append(samples, float64(time.Since(t0).Nanoseconds())/1e3)
		if failed, _ := m.Failed(); failed {
			break
		}
	}
	return samples, time.Since(start).Seconds()
}
