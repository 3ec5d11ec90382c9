package experiments

import (
	"fmt"

	"tppsim/internal/core"
	"tppsim/internal/mem"
	"tppsim/internal/metrics"
	"tppsim/internal/report"
	"tppsim/internal/series"
	"tppsim/internal/sim"
	"tppsim/internal/tier"
	"tppsim/internal/vmstat"
)

// MT1 measures throughput against memory-tier depth: the same workload
// and total capacity headroom on an all-local machine (depth 1), the
// paper's 2-node CXL box (depth 2), and the 3-tier multi-hop expander
// (depth 3), under Default Linux and TPP. The expander rows also report
// the cascade traffic: demotions into and promotions out of the far
// tier, which only a topology-aware mechanism generates.
func MT1(o Options) Result {
	t := &report.Table{
		Title: "MT1 — Cache2 throughput vs memory-tier depth",
		Columns: []string{"topology (depth)", "Default Linux", "TPP",
			"TPP demote far", "TPP promote far"},
	}
	depths := []struct {
		label string
		spec  tier.Spec
	}{
		{"all-local (1)", tier.PresetCXL(1, 0)},
		{"cxl 2:1 (2)", tier.PresetCXL(2, 1)},
		{"expander 2:1:1 (3)", tier.PresetExpander(2, 1, 1)},
	}
	var defTput, tppTput metrics.Series
	defTput.Name, tppTput.Name = "default", "tpp"
	for i, d := range depths {
		_, def := run(o, core.DefaultLinux(), "Cache2", d.spec)
		tm, tpp := run(o, core.TPP(), "Cache2", d.spec)
		depth := float64(i + 1)
		defTput.Append(depth, def.NormalizedThroughput)
		tppTput.Append(depth, tpp.NormalizedThroughput)
		far := tm.Stat()
		t.AddRow(d.label,
			cellTput(def), cellTput(tpp),
			fmt.Sprintf("%d", far.Get(vmstat.PgdemoteFar)),
			fmt.Sprintf("%d", far.Get(vmstat.PgpromoteFar)))
	}
	t.AddNote("TPP holds throughput as tiers deepen; Default strands hot pages wherever the flood left them")
	return Result{
		ID: "MT1", Caption: "Throughput vs tier depth", Table: t,
		Series: map[string]string{"throughput": report.SeriesCSV("tier_depth", &defTput, &tppTput)},
	}
}

func cellTput(r *metrics.Run) string {
	if r.Failed {
		return "Fails"
	}
	return report.F1(100 * r.NormalizedThroughput)
}

// MT2 sweeps TPP over topology *shapes*: share mixes and distance
// matrices beyond the presets — the symmetric dual-socket machine, an
// asymmetric dual-socket (one socket with most of the DRAM), and a
// 4-deep daisy chain — and reports the per-node flows from the
// node-indexed stats plane: where pages sat at the end, where
// allocations landed, and how many pages each node demoted away,
// received by promotion, or hint-faulted. Each scenario's counter
// columns sum exactly to the run's global vmstat values.
func MT2(o Options) Result {
	scenarios := []struct {
		label string
		spec  tier.Spec
	}{
		{"dualsocket 2:2:1:1", tier.PresetDualSocket()},
		{"dualsocket asym 3:1:1:1", asymDualSocket()},
		{"chain4 4:2:1:1", chain4()},
	}
	t := &report.Table{
		Title: "MT2 — TPP per-node flows across share mixes and distance matrices",
		Columns: []string{"scenario", "node", "kind", "tier", "resident",
			"pgalloc", "pgdemote", "pgpromote", "hint faults"},
	}
	series := map[string]string{}
	for _, sc := range scenarios {
		_, res := run(o, core.TPP(), "Cache2", sc.spec)
		label := sc.label
		if res.Failed {
			t.AddRow(label, "-", "-", "-", "FAILS: "+res.FailReason)
			continue
		}
		var resid metrics.Series
		resid.Name = "resident"
		for _, n := range res.Nodes {
			t.AddRow(label,
				fmt.Sprintf("%d", n.ID), n.Kind, fmt.Sprintf("%d", n.Tier),
				fmt.Sprintf("%d/%d", n.ResidentPages, n.CapacityPages),
				fmt.Sprintf("%d", n.Get(vmstat.PgallocLocal)+n.Get(vmstat.PgallocCXL)),
				fmt.Sprintf("%d", n.Get(vmstat.PgdemoteKswapd)+n.Get(vmstat.PgdemoteDirect)),
				fmt.Sprintf("%d", n.Get(vmstat.PgpromoteSuccess)),
				fmt.Sprintf("%d", n.Get(vmstat.NumaHintFaults)))
			label = "" // scenario name only on its first row
			resid.Append(float64(n.ID), float64(n.ResidentPages))
		}
		series["residency_"+slug(sc.label)] = report.SeriesCSV("node", &resid)
	}
	t.AddNote("per-node counters sum exactly to the run's global vmstat (the stats-plane invariant)")
	t.AddNote("asym dual-socket: socket 0 holds 3/6 of capacity; chain4 cascades local -> cxl -> cxl -> cxl one hop at a time")
	return Result{ID: "MT2", Caption: "Per-node flows across topology shapes", Table: t, Series: series}
}

// MT3 produces the dual-socket residency/flow-over-time figure data:
// TPP on the §7 dual-socket machine with the per-tick per-node series
// plane sampling every tick, emitted as columnar CSV — each socket's
// residency filling and draining, and the promotion/demotion flows
// between the sockets and their expanders, over the whole run (the
// multi-socket analogue of the paper's Fig. 9/Fig. 17 time axes). The
// table summarizes the steady state: per-node residency at the end plus
// total promotion/demotion flow through each node.
func MT3(o Options) Result {
	_, res := run(o, core.TPP(), "Cache2", tier.PresetDualSocket(),
		func(c *sim.Config) { c.SampleEveryTicks = 1 })
	t := &report.Table{
		Title: "MT3 — dual-socket residency and flows over time (TPP/Cache2)",
		Columns: []string{"node", "kind", "tier", "resident (end)", "util",
			"promote total", "demote total", "resident p50 (series)"},
	}
	if res.Failed {
		t.AddRow("-", "-", "-", "FAILS: "+res.FailReason)
		return Result{ID: "MT3", Caption: "Dual-socket residency/flows over time", Table: t}
	}
	s := res.NodeSeries
	for _, n := range res.Nodes {
		resid := make([]float64, s.Len())
		for i := range resid {
			resid[i] = float64(s.Level(n.ID, series.LevelResident, i))
		}
		util := 0.0
		if n.CapacityPages > 0 {
			util = float64(n.ResidentPages) / float64(n.CapacityPages)
		}
		t.AddRow(
			fmt.Sprintf("%d", n.ID), n.Kind, fmt.Sprintf("%d", n.Tier),
			fmt.Sprintf("%d/%d", n.ResidentPages, n.CapacityPages),
			report.Pct(util),
			fmt.Sprintf("%d", s.DeltaTotal(n.ID, vmstat.PgpromoteSuccess)),
			fmt.Sprintf("%d", s.DeltaTotal(n.ID, vmstat.PgdemoteKswapd)+s.DeltaTotal(n.ID, vmstat.PgdemoteDirect)),
			fmt.Sprintf("%.0f", metrics.Percentile(resid, 50)))
	}
	t.AddNote("series plane sampled every tick (self-coarsened to %d windows x %d ticks); flow totals equal the run's global counters", s.Len(), s.Cadence())
	labels := report.NodeLabels(res.Nodes, s.Nodes())
	return Result{
		ID: "MT3", Caption: "Dual-socket residency/flows over time", Table: t,
		Series: map[string]string{"node_series": report.SeriesColumnsCSV(s, labels)},
	}
}

// asymDualSocket is the dual-socket machine with an asymmetric share
// mix: socket 0 carries most of the DRAM, socket 1 is memory-poor, and
// each socket keeps its own expander.
func asymDualSocket() tier.Spec {
	s := tier.PresetDualSocket()
	s.Name = "dualsocket-asym"
	s.Nodes[0].Share = 3
	s.Nodes[1].Share = 1
	return s
}

// chain4 is a 4-deep daisy chain: local DRAM, then three CXL devices
// each one switch hop behind the previous — the deepest cascade the
// multi-hop demotion/promotion machinery has to climb.
func chain4() tier.Spec {
	return tier.Spec{
		Name: "chain4",
		Nodes: []tier.NodeSpec{
			{Kind: mem.KindLocal, Share: 4},
			{Kind: mem.KindCXL, Share: 2},
			{Kind: mem.KindCXL, Share: 1, LoadLatencyNs: tier.FarCXLLatencyNs},
			{Kind: mem.KindCXL, Share: 1, LoadLatencyNs: 500,
				BandwidthMBps: tier.CrossSocketBandwidthMBps},
		},
		Distance: [][]int{
			{10, 20, 30, 40},
			{20, 10, 20, 30},
			{30, 20, 10, 20},
			{40, 30, 20, 10},
		},
	}
}

// slug turns a scenario label into a series-map key.
func slug(s string) string {
	out := make([]rune, 0, len(s))
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z' || r >= '0' && r <= '9':
			out = append(out, r)
		case r == ' ' || r == ':':
			if len(out) > 0 && out[len(out)-1] != '_' {
				out = append(out, '_')
			}
		}
	}
	return string(out)
}
