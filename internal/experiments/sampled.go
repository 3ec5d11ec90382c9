package experiments

import (
	"fmt"

	"tppsim/internal/core"
	"tppsim/internal/metrics"
	"tppsim/internal/report"
	"tppsim/internal/sim"
	"tppsim/internal/tier"
	"tppsim/internal/tracker"
)

// MT6 sweeps the sampled-tracking plane: the tracker-driven policy
// family running blind on tracker counters, across tracker kinds,
// scan intervals, and mover budgets on the three machine shapes. The
// oracle scores every run's hot-set against exact access counts, so
// each row pairs the tracker's *overhead* (pages checked per tick)
// with its *accuracy* (precision/recall) and what that bought in
// throughput — the overhead/accuracy tradeoff memtierd-style daemons
// live on. softdirty's rows demonstrate the write-only blind spot:
// near-zero recall on read-heavy heat, at idlepage's identical scan
// price.
func MT6(o Options) Result {
	t := &report.Table{
		Title: "MT6 — sampled trackers: overhead vs accuracy vs throughput",
		Columns: []string{"topology", "tracker", "scan", "budget",
			"tput %", "local %", "scanned/tick", "moved", "deferred", "prec %", "recall %"},
	}

	topos := []struct {
		label string
		spec  tier.Spec
	}{
		{"cxl 2:1", tier.PresetCXL(2, 1)},
		{"dualsocket", tier.PresetDualSocket()},
		{"expander", tier.PresetExpander(2, 1, 1)},
	}
	type arm struct {
		kind   string
		scan   uint64
		budget int
	}
	// Tracker kinds everywhere at defaults; scan-interval and
	// mover-budget sweeps on the CXL box only (the knobs are
	// topology-independent; no need to cube the matrix).
	arms := map[string][]arm{
		"cxl 2:1": {
			{"idlepage", 16, 128},
			{"softdirty", 16, 128},
			{"damon", 16, 128},
			{"idlepage", 4, 128},
			{"idlepage", 64, 128},
			{"idlepage", 16, 32},
			{"idlepage", 16, 512},
		},
		"dualsocket": {
			{"idlepage", 16, 128},
			{"damon", 16, 128},
		},
		"expander": {
			{"idlepage", 16, 128},
			{"softdirty", 16, 128},
			{"damon", 16, 128},
		},
	}

	var overhead, recall metrics.Series
	overhead.Name, recall.Name = "scanned_per_tick", "recall"
	for _, topo := range topos {
		for _, a := range arms[topo.label] {
			pol := core.Sampled()
			pol.Sampled.PagesPerTick = a.budget
			_, r := run(o, pol, "Cache2", topo.spec, func(cfg *sim.Config) {
				cfg.Tracker = tracker.Config{Kind: a.kind, ScanEveryTicks: a.scan, Oracle: true}
			})
			ts := r.Tracker
			if ts == nil {
				panic("MT6: sampled run returned no tracker stats")
			}
			t.AddRow(topo.label, a.kind,
				fmt.Sprintf("%d", a.scan), fmt.Sprintf("%d", a.budget),
				cellTput(r), report.F1(100*r.AvgLocalTraffic),
				report.F1(ts.ScannedPerTick),
				fmt.Sprintf("%d", ts.MoverMoved), fmt.Sprintf("%d", ts.MoverDeferred),
				report.F1(100*ts.Precision), report.F1(100*ts.Recall))
			if topo.label == "cxl 2:1" && a.scan == 16 && a.budget == 128 {
				overhead.Append(float64(len(overhead.Y)), ts.ScannedPerTick)
				recall.Append(float64(len(recall.Y)), ts.Recall)
			}
		}
	}
	t.AddNote("precision/recall vs the exact-count oracle; scanned/tick is the tracker's own overhead")
	t.AddNote("softdirty sees only writes: recall collapses on read-heavy heat at the same scan cost as idlepage")
	t.AddNote("damon's scanned/tick is fixed by its sampling budget — constant overhead regardless of memory size")
	return Result{
		ID: "MT6", Caption: "Sampled-tracker overhead vs accuracy", Table: t,
		Series: map[string]string{"tradeoff": report.SeriesCSV("kind_index", &overhead, &recall)},
	}
}
