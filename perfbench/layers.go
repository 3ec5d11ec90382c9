package main

import (
	"fmt"
	"runtime"
	"slices"
	"time"

	"tppsim/internal/mem"
	"tppsim/internal/pagetable"
	"tppsim/internal/probe"
	"tppsim/internal/sim"
	"tppsim/internal/vmstat"
	"tppsim/internal/workload"
)

// phaseNames are the tick phases of the simulator's phase profiler.
var phaseNames = func() []string {
	names := make([]string, probe.NumPhases)
	for i := range names {
		names[i] = probe.Phase(i).String()
	}
	return names
}()

// chunkSeconds is how long one machine steps before the traced run
// switches to the other, so host drift hits both alike.
const chunkSeconds = 0.05

// traceMachine is the traced run of a machine workload. It steps two
// filled machines of the same seed in alternating chunks: one untraced,
// one with the phase profiler, the latency histograms and a span around
// every Step. The traced machine gives the phase times and the per-tick
// vmstat work counts; the pair gives the tracing overhead. Layer
// microbenchmarks then run on a third machine that the windows never
// step.
func traceMachine(s *machineSpec, o opts, rep *report) error {
	t := newTracer()
	c := &checker{s: s, o: o, rep: rep}
	for _, w := range c.jobs() {
		if err := c.run(w); err != nil {
			return err
		}
	}
	plain, _, err := buildFilled(s.config(o.seed, 0), nil, -1)
	if err != nil {
		return err
	}
	tcfg := s.config(o.seed, 0)
	tcfg.ProbePhases, tcfg.ProbeLatency = true, true
	setup := t.begin("setup", -1)
	traced, _, err := buildFilled(tcfg, t, setup)
	t.end(setup)
	if err != nil {
		return err
	}
	prof := traced.Probes().Prof
	for i := range phaseNames {
		prof.Hist(probe.Phase(i)).Reset() // measure the window, not the fill
	}
	stat0, mem0, acc0 := traced.Stat().Snapshot(), traced.MemStats(), accessCount(traced)

	var plainTicks, tracedTicks int64
	var plainSec, tracedSec float64
	var mallocs uint64
	var ms runtime.MemStats
	var samples []float64
	window := t.begin("window", -1)
	// The registry workload's traced run gives part of its window to the
	// registry passes, which run last.
	windowShare, layerShare := 0.6, 0.4
	if s.registry {
		windowShare, layerShare = 0.35, 0.2
	}
	end := deadline(windowShare * o.seconds)
	for time.Now().Before(end) {
		runtime.ReadMemStats(&ms)
		before := ms.Mallocs
		var sec float64
		samples, sec = stepWindow(plain, samples[:0], chunkSeconds, nil, -1)
		runtime.ReadMemStats(&ms)
		mallocs += ms.Mallocs - before
		plainTicks += int64(len(samples))
		plainSec += sec
		samples, sec = stepWindow(traced, samples[:0], chunkSeconds, t, window)
		tracedTicks += int64(len(samples))
		tracedSec += sec
	}
	t.end(window)
	rep.attempted += plainTicks + tracedTicks
	for _, m := range []*sim.Machine{plain, traced} {
		if failed, why := m.Failed(); failed {
			rep.fail(int64(m.Tick()), "traced-run machine failed at tick %d: %s", m.Tick(), why)
		}
	}

	perTick := func(v float64) float64 { return ratio(v, float64(tracedTicks)) }
	for i, ph := range phaseNames {
		h := prof.Hist(probe.Phase(i))
		rep.set("sim.phase."+ph+".us_per_tick", perTick(float64(h.Sum())/1e3))
		rep.set("sim.phase."+ph+".p99_us", float64(h.Quantile(0.99))/1e3)
	}
	d := traced.Stat().Snapshot().Delta(stat0)
	count := func(cs ...vmstat.Counter) float64 {
		var n uint64
		for _, k := range cs {
			n += d.Get(k)
		}
		return float64(n)
	}
	scanned := count(vmstat.PgscanKswapd, vmstat.PgscanDirect)
	migrated := count(vmstat.PgmigrateSuccess, vmstat.PgmigrateFail)
	rep.set("workload.accesses_per_tick", perTick(float64(accessCount(traced)-acc0)))
	rep.set("alloc.pgalloc_per_tick", perTick(count(vmstat.PgallocLocal, vmstat.PgallocCXL)))
	rep.set("alloc.allocstall_per_tick", perTick(count(vmstat.PgallocStall)))
	rep.set("reclaim.pgscan_per_tick", perTick(scanned))
	rep.set("reclaim.reclaimed_per_scanned", ratio(count(vmstat.PgstealKswapd, vmstat.PgstealDirect,
		vmstat.PgdemoteKswapd, vmstat.PgdemoteDirect), scanned))
	rep.set("migrate.pgmigrate_per_tick", perTick(migrated))
	rep.set("migrate.fail_ratio", ratio(count(vmstat.PgmigrateFail), migrated))
	rep.set("numab.pages_scanned_per_tick", perTick(count(vmstat.NumaPagesScanned)))
	rep.set("numab.hint_faults_per_tick", perTick(count(vmstat.NumaHintFaults)))
	mem1 := traced.MemStats()
	// Candidates count hint-fault events (one per frame); successes count
	// base pages.
	rep.set("numab.promote_success_ratio", ratio(count(vmstat.PgpromoteSuccess),
		count(vmstat.PgpromoteCandidate)*float64(mem1.FramePages)))
	rep.set("pagetable.extent_splits_per_tick", perTick(float64(mem1.Splits-mem0.Splits)))
	rep.set("pagetable.extent_merges_per_tick", perTick(float64(mem1.Merges-mem0.Merges)))
	rep.set("pagetable.extents", float64(mem1.Extents))
	rep.set("sim.allocs_per_tick", ratio(float64(mallocs), float64(plainTicks)))

	untraced, tracedRate := ratio(float64(plainTicks), plainSec), ratio(float64(tracedTicks), tracedSec)
	rep.set("trace.untraced_sim_s_per_s", untraced*sim.TickSeconds)
	rep.set("trace.traced_sim_s_per_s", tracedRate*sim.TickSeconds)
	rep.set("trace.overhead_sim_s_per_s", (tracedRate-untraced)*sim.TickSeconds)
	rep.notef("traced window: %d untraced + %d traced ticks", plainTicks, tracedTicks)

	if err := layerBenches(s, o, rep, t, deadline(layerShare*o.seconds)); err != nil {
		return err
	}
	if s.registry {
		timeRegistry(o, rep, t)
	}
	return finishTrace(t, o, rep)
}

// accessCount is the number of accesses the machine has charged: the
// per-node access-latency histograms observe every one.
func accessCount(m *sim.Machine) uint64 {
	var n uint64
	for i := range m.Probes().Lat.Access {
		n += m.Probes().Lat.Access[i].Count()
	}
	return n
}

// keptBatches is how many recent access batches the translate benchmark
// replays.
const keptBatches = 64

// layerBenches times the workload draw and the page-table translate from
// outside, on a filled machine of the workload's own configuration that
// no window steps. Draws run until half the budget is gone; the drawn
// batches then feed TranslateBatch on the machine's own table and, at
// 4 KB, on an extent-table mirror of it, which must translate every
// batch identically.
func layerBenches(s *machineSpec, o opts, rep *report, t *tracer, end time.Time) error {
	cfg := s.config(o.seed, 0)
	root := t.begin("layers", -1)
	defer t.end(root)
	m, _, err := buildFilled(cfg, t, root)
	if err != nil {
		return err
	}
	wl := cfg.Workload
	ba, ok := wl.(workload.BatchAccessor)
	if !ok {
		return fmt.Errorf("%s: workload has no batch draw", s.name)
	}
	size := cfg.AccessesPerTick
	if size == 0 {
		size = 2000 // sim.Config's default
	}
	buf := make([]pagetable.VPN, size)
	batches := make([][]pagetable.VPN, 0, keptBatches)
	var drawNs, drawn int64
	drawEnd := time.Now().Add(time.Until(end) / 2)
	for tick := m.Tick(); time.Now().Before(drawEnd); tick++ {
		wl.Tick(m, tick)
		sp := t.begin("workload.NextAccessBatch", root)
		t0 := time.Now()
		n := ba.NextAccessBatch(m, tick, buf)
		drawNs += time.Since(t0).Nanoseconds()
		t.end(sp)
		drawn += int64(n)
		if len(batches) < keptBatches {
			batches = append(batches, slices.Clone(buf[:n]))
		} else {
			batches[int(tick)%keptBatches] = append(batches[int(tick)%keptBatches][:0], buf[:n]...)
		}
	}
	rep.set("workload.draw_ns_per_access", ratio(float64(drawNs), float64(drawn)))

	own := m.AddressSpace()
	tables := []*pagetable.AddressSpace{own}
	names := []string{"extent2m"}
	if !s.huge {
		mirror, err := extentMirror(own)
		if err != nil {
			return err
		}
		tables = append(tables, mirror)
		names = []string{"dense4k", "extent4k"}
	}
	ns, vpns, mismatches := timeTranslate(tables, batches, t, root, end)
	if mismatches > 0 {
		rep.fail(mismatches, "extent mirror translated %d batches differently from the dense table", mismatches)
	}
	for i, n := range names {
		rep.set("pagetable.translate_ns_per_vpn."+n, ratio(float64(ns[i]), float64(vpns)))
	}
	rep.notef("layer benches: %d accesses drawn; %d VPNs translated per table", drawn, vpns)
	return nil
}

// timeTranslate runs TranslateBatch over the batches on every table in
// turn until end, returning each table's total host nanoseconds, the
// VPNs translated per table, and how many batches a later table
// translated differently from the first.
func timeTranslate(tables []*pagetable.AddressSpace, batches [][]pagetable.VPN, t *tracer, parent int32, end time.Time) ([]int64, int64, int64) {
	ns := make([]int64, len(tables))
	outs := make([][]mem.PFN, len(tables))
	var vpns, mismatches int64
	for first := true; first || time.Now().Before(end); first = false {
		for _, b := range batches {
			for i, tb := range tables {
				outs[i] = slices.Grow(outs[i][:0], len(b))[:len(b)]
				sp := t.begin("pagetable.TranslateBatch", parent)
				t0 := time.Now()
				tb.TranslateBatch(b, outs[i])
				ns[i] += time.Since(t0).Nanoseconds()
				t.end(sp)
				if first && i > 0 && !slices.Equal(outs[i], outs[0]) {
					mismatches++
				}
			}
			vpns += int64(len(b))
		}
	}
	return ns, vpns, mismatches
}

// extentMirror copies a dense 4 KB address space into a fresh extent
// table (pagetable.NewExtent with frame shift 0): the same regions at
// the same VPNs, the same mappings.
func extentMirror(dense *pagetable.AddressSpace) (*pagetable.AddressSpace, error) {
	ext := pagetable.NewExtent(dense.PID, 0)
	var next pagetable.VPN
	for _, r := range dense.Regions() {
		// Region starts only grow and every Mmap leaves a guard gap, so a
		// gap left by an unmapped region is re-created by mapping and
		// unmapping a filler of the right size.
		if gap := uint64(r.Start - next); gap > 0 {
			if gap <= guardPages {
				return nil, fmt.Errorf("mirror: gap of %d pages before VPN %d", gap, r.Start)
			}
			ext.Munmap(ext.Mmap(gap-guardPages, r.Type))
		}
		if got := ext.Mmap(r.Pages, r.Type); got.Start != r.Start {
			return nil, fmt.Errorf("mirror: region at VPN %d landed at %d", r.Start, got.Start)
		}
		next = r.End() + guardPages
	}
	dense.ForEachMapped(func(v pagetable.VPN, pfn mem.PFN) { ext.MapPage(v, pfn) })
	return ext, nil
}

// guardPages is the gap pagetable.Mmap leaves after every region.
const guardPages = 16

// finishTrace prints the span summary and writes the spans out.
func finishTrace(t *tracer, o opts, rep *report) error {
	t.summary(rep)
	path, err := t.write(o.out, o.workload)
	if err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	if path != "" {
		rep.notef("spans written to %s", path)
	}
	return nil
}
