package experiments

import (
	"fmt"

	"tppsim/internal/core"
	"tppsim/internal/fault"
	"tppsim/internal/metrics"
	"tppsim/internal/report"
	"tppsim/internal/sim"
	"tppsim/internal/tier"
	"tppsim/internal/vmstat"
	"tppsim/internal/workload"
)

// MT5 measures policy resilience: TPP driving Web1 on each topology
// while the fault plane injects a mid-run failure window — a latency
// brown-out of the CXL device plus transient migration failures, or a
// full hot-remove of the deepest CXL node. Reported per scenario:
// steady-state throughput, recovery time (minutes after the window
// closes until throughput regains 95% of its pre-fault baseline), and
// the fault counters (pages evacuated, migration retries, pages
// dropped after backoff exhaustion).
func MT5(o Options) Result {
	ticks := uint64(o.Minutes) * workload.TicksPerMinute
	fStart, fEnd := ticks*2/5, ticks*3/5

	t := &report.Table{
		Title: "MT5 — TPP resilience under injected faults (Web1)",
		Columns: []string{"topology", "faults", "throughput", "recovery (min)",
			"evacuated", "retries", "drops"},
	}

	topos := []struct {
		label string
		spec  tier.Spec
		// victim is the CXL node the fault window targets: the deepest
		// (slowest) expander of the topology.
		victim int
	}{
		{"cxl 2:1", tier.PresetCXL(2, 1), 1},
		{"dual-socket", tier.PresetDualSocket(), 3},
		{"expander 2:1:1", tier.PresetExpander(2, 1, 1), 2},
	}
	intensities := []struct {
		label string
		sched func(victim int) fault.Schedule
	}{
		{"none", func(int) fault.Schedule { return fault.Schedule{} }},
		{"degraded", func(victim int) fault.Schedule {
			return fault.Schedule{Seed: 42, Events: []fault.Event{
				{Kind: fault.LatencyDegrade, Node: victim, At: fStart, Until: fEnd, Mult: 3, Jitter: 0.1},
				{Kind: fault.MigFailBegin, Node: -1, At: fStart, Until: fEnd, Prob: 0.2},
			}}
		}},
		{"offline", func(victim int) fault.Schedule {
			return fault.Schedule{Seed: 42, Events: []fault.Event{
				{Kind: fault.NodeOffline, Node: victim, At: fStart, Until: fEnd},
			}}
		}},
	}

	faultEndMin := float64(fEnd) / workload.TicksPerMinute
	for _, tp := range topos {
		for _, in := range intensities {
			sched := in.sched(tp.victim)
			m, res := run(o, core.TPP(), "Web1", tp.spec, func(cfg *sim.Config) {
				cfg.Faults = sched
			})
			recovery := "-"
			if !sched.Empty() && !res.Failed {
				recovery = recoveryCell(&res.Throughput, float64(fStart)/workload.TicksPerMinute, faultEndMin)
			}
			st := m.Stat()
			t.AddRow(tp.label, in.label, cellTput(res), recovery,
				fmt.Sprintf("%d", st.Get(vmstat.EvacuatedPages)),
				fmt.Sprintf("%d", st.Get(vmstat.MigrateRetry)),
				fmt.Sprintf("%d", st.Get(vmstat.MigrateBackoffDrop)))
		}
	}
	t.AddNote("fault window ticks [%d, %d); offline = hot-remove of the deepest CXL node with emergency evacuation, degraded = 3x latency brown-out with 20%% transient migration failures", fStart, fEnd)
	t.AddNote("recovery = minutes past window close until throughput regains 95%% of its pre-fault mean")
	return Result{ID: "MT5", Caption: "Policy resilience under injected faults", Table: t}
}

// recoveryCell scans a throughput series for the first post-window
// point back at 95% of the pre-fault baseline.
func recoveryCell(s *metrics.Series, faultStartMin, faultEndMin float64) string {
	var base float64
	var n int
	for i, x := range s.X {
		if x >= faultStartMin {
			break
		}
		base += s.Y[i]
		n++
	}
	if n == 0 {
		return "-"
	}
	base /= float64(n)
	for i, x := range s.X {
		if x < faultEndMin {
			continue
		}
		if s.Y[i] >= 0.95*base {
			return report.F1(x - faultEndMin)
		}
	}
	return "never"
}
