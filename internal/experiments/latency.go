package experiments

import (
	"fmt"

	"tppsim/internal/core"
	"tppsim/internal/probe"
	"tppsim/internal/report"
	"tppsim/internal/sim"
	"tppsim/internal/tier"
)

// MT4 produces the paper's Fig. 6-style access-latency demographics
// from the distribution plane: for each topology preset (the 2:1 CXL
// box, the dual-socket machine, the 3-tier expander) it runs Default
// Linux and TPP with the latency histograms on, reports each run's
// percentile digest plus the share of accesses served from CXL nodes
// (the "CXL tax"), and emits one CSV block per preset with the
// per-policy CDF columns — cumulative fraction of accesses at or below
// each latency bound, ready to plot as CDF curves.
func MT4(o Options) Result {
	probed := func(c *sim.Config) { c.ProbeLatency = true }
	presets := []struct {
		label string
		spec  tier.Spec
	}{
		{"cxl 2:1", tier.PresetCXL(2, 1)},
		{"dualsocket 2:2:1:1", tier.PresetDualSocket()},
		{"expander 2:1:1", tier.PresetExpander(2, 1, 1)},
	}
	policies := []struct {
		label  string
		policy core.Policy
	}{
		{"default", core.DefaultLinux()},
		{"tpp", core.TPP()},
	}
	t := &report.Table{
		Title: "MT4 — access-latency demographics per policy (Web1)",
		Columns: []string{"topology", "policy", "accesses", "mean",
			"p50", "p90", "p99", "p99.9", "cxl-served"},
	}
	seriesOut := map[string]string{}
	for _, pre := range presets {
		hists := make([]*probe.Histogram, 0, len(policies))
		names := make([]string, 0, len(policies))
		label := pre.label
		for _, pol := range policies {
			_, res := run(o, pol.policy, "Web1", pre.spec, probed)
			if res.Failed {
				t.AddRow(label, pol.label, "FAILS: "+res.FailReason)
				label = ""
				continue
			}
			total := res.LatencyHist.TotalAccess()
			var cxlServed uint64
			for _, n := range res.Nodes {
				if n.Kind == "cxl" {
					cxlServed += res.LatencyHist.Access[n.ID].Count()
				}
			}
			share := 0.0
			if c := total.Count(); c > 0 {
				share = float64(cxlServed) / float64(c)
			}
			s := total.Percentiles()
			t.AddRow(label, pol.label,
				fmt.Sprintf("%d", s.Count),
				fmt.Sprintf("%.0fns", s.Mean),
				report.Dur(s.P50), report.Dur(s.P90),
				report.Dur(s.P99), report.Dur(s.P999),
				report.Pct(share))
			label = "" // preset label only on its first row
			h := total
			hists = append(hists, &h)
			names = append(names, pol.label)
		}
		if len(hists) > 0 {
			seriesOut["cdf_"+slug(pre.label)] = report.CDFColumnsCSV(hists, names)
		}
	}
	t.AddNote("percentiles are log2-bucket upper bounds; cxl-served is the fraction of sampled accesses a CXL node answered (the CXL tax TPP shrinks)")
	return Result{
		ID: "MT4", Caption: "Access-latency CDFs per policy across topologies",
		Table: t, Series: seriesOut,
	}
}
