package experiments

import (
	"fmt"

	"tppsim/internal/core"
	"tppsim/internal/report"
	"tppsim/internal/tier"
	"tppsim/internal/vmstat"
)

// Fig17 regenerates the decoupling ablation (§5.2, Fig. 17): allocation
// rate and promotion rate with and without the decoupled
// allocation/reclamation watermarks, on the pressured 1:4 Cache1 setup.
func Fig17(o Options) Result {
	_, with := run(o, core.TPP(), "Cache1", tier.PresetCXL(1, 4))
	_, without := run(o, core.TPP(core.WithoutDecoupling()), "Cache1", tier.PresetCXL(1, 4))

	t := &report.Table{
		Title:   "Fig. 17 — Impact of decoupling allocation and reclamation (Cache1, 1:4)",
		Columns: []string{"metric", "with decoupling", "without decoupling"},
	}
	t.AddRow("local allocation rate p95 (MB/s)",
		fmt.Sprintf("%.3f", with.LocalAllocRate.Percentile(95)), fmt.Sprintf("%.3f", without.LocalAllocRate.Percentile(95)))
	t.AddRow("promotion rate mean (KB/s)",
		report.F1(with.PromotionRate.Mean()), report.F1(without.PromotionRate.Mean()))
	t.AddRow("promotion rate p99 (KB/s)",
		report.F1(with.PromotionRate.Percentile(99)), report.F1(without.PromotionRate.Percentile(99)))
	t.AddRow("local traffic", report.Pct(with.AvgLocalTraffic), report.Pct(without.AvgLocalTraffic))
	t.AddRow("throughput", report.Pct(with.NormalizedThroughput), report.Pct(without.NormalizedThroughput))
	wa, wb := with.LocalAllocRate, without.LocalAllocRate
	wa.Name, wb.Name = "with_decoupling", "without_decoupling"
	pa, pb := with.PromotionRate, without.PromotionRate
	pa.Name, pb.Name = "with_decoupling", "without_decoupling"
	series := map[string]string{
		"alloc_rate":     report.SeriesCSV("minute", &wa, &wb),
		"promotion_rate": report.SeriesCSV("minute", &pa, &pb),
	}
	t.AddNote("paper: without decoupling, allocation is clamped by reclaim and promotion almost halts; with it, allocation bursts pass and promotion sustains a steady rate")
	return Result{ID: "Fig17", Caption: "Decoupling ablation", Table: t, Series: series}
}

// Fig18 regenerates the active-LRU promotion-filter ablation (§5.3,
// Fig. 18): restricting promotion candidates by LRU age versus instant
// opportunistic promotion.
func Fig18(o Options) Result {
	mActive, active := run(o, core.TPP(), "Cache1", tier.PresetCXL(1, 4))
	mInstant, instant := run(o, core.TPP(core.WithInstantPromotion()), "Cache1", tier.PresetCXL(1, 4))

	t := &report.Table{
		Title:   "Fig. 18 — Active-LRU-based promotion filter (Cache1, 1:4)",
		Columns: []string{"metric", "active-LRU filter", "instant promotion"},
	}
	aStat := mActive.Stat().Snapshot()
	iStat := mInstant.Stat().Snapshot()
	t.AddRow("promoted pages", fmt.Sprint(aStat.Get(vmstat.PgpromoteSuccess)), fmt.Sprint(iStat.Get(vmstat.PgpromoteSuccess)))
	t.AddRow("ping-pong promotions", fmt.Sprint(aStat.Get(vmstat.PgpromoteDemoted)), fmt.Sprint(iStat.Get(vmstat.PgpromoteDemoted)))
	t.AddRow("local traffic", report.Pct(active.AvgLocalTraffic), report.Pct(instant.AvgLocalTraffic))
	t.AddRow("throughput", report.Pct(active.NormalizedThroughput), report.Pct(instant.NormalizedThroughput))
	la, li := active.LocalTraffic, instant.LocalTraffic
	la.Name, li.Name = "active_lru", "instant"
	series := map[string]string{"local_traffic": report.SeriesCSV("minute", &la, &li)}
	t.AddNote("paper: the filter cuts promotion traffic ~11x and demote-then-promote ping-pong ~50%% while converging to the same steady state")
	return Result{ID: "Fig18", Caption: "Active-LRU ablation", Table: t, Series: series}
}

// Table2 regenerates the page-type-aware allocation results (§5.4):
// preferring CXL for caches lets small-local configurations behave like
// all-local ones.
func Table2(o Options) Result {
	t := &report.Table{
		Title:   "Table 2 — Page-type-aware allocation",
		Columns: []string{"workload (ratio)", "local traffic", "CXL traffic", "throughput vs baseline"},
	}
	rows := []struct {
		wl    string
		ratio [2]uint64
	}{
		{"Web1", [2]uint64{2, 1}},
		{"Cache1", [2]uint64{1, 4}},
		{"Cache2", [2]uint64{1, 4}},
	}
	for _, r := range rows {
		_, res := run(o, core.TPP(core.WithPageTypeAware()), r.wl, tier.PresetCXL(r.ratio[0], r.ratio[1]))
		t.AddRow(fmt.Sprintf("%s (%d:%d)", r.wl, r.ratio[0], r.ratio[1]),
			report.Pct(res.AvgLocalTraffic), report.Pct(1-res.AvgLocalTraffic),
			report.Pct(res.NormalizedThroughput))
	}
	t.AddNote("paper: 97/85/72%% local traffic with 99.5/99.8/98.5%% of baseline throughput")
	return Result{ID: "Table2", Caption: "Page-type-aware allocation", Table: t}
}

// X1 regenerates the §6.2 active-LRU scalar claims directly from the
// counters: promotion-rate reduction, ping-pong reduction, and promotion
// success-rate improvement.
func X1(o Options) Result {
	mActive, _ := run(o, core.TPP(), "Cache1", tier.PresetCXL(1, 4))
	mInstant, _ := run(o, core.TPP(core.WithInstantPromotion()), "Cache1", tier.PresetCXL(1, 4))
	a := mActive.Stat().Snapshot()
	i := mInstant.Stat().Snapshot()

	rate := func(s vmstat.Snapshot) float64 { return float64(s.Get(vmstat.PgpromoteSuccess)) }
	pp := func(s vmstat.Snapshot) float64 {
		if s.Get(vmstat.PgpromoteSuccess) == 0 {
			return 0
		}
		return float64(s.Get(vmstat.PgpromoteDemoted)) / float64(s.Get(vmstat.PgpromoteSuccess))
	}
	succ := func(s vmstat.Snapshot) float64 {
		att := s.Get(vmstat.PgpromoteCandidate)
		if att == 0 {
			return 0
		}
		return float64(s.Get(vmstat.PgpromoteSuccess)) / float64(att)
	}

	t := &report.Table{
		Title:   "X1 — Active-LRU filter scalars (§6.2, Cache1 1:4)",
		Columns: []string{"metric", "active-LRU filter", "instant promotion", "ratio"},
	}
	t.AddRow("promotions", report.F1(rate(a)), report.F1(rate(i)), fmt.Sprintf("%.1fx fewer", safeDiv(rate(i), rate(a))))
	t.AddRow("ping-pong share", report.Pct(pp(a)), report.Pct(pp(i)), "")
	t.AddRow("promotion success rate", report.Pct(succ(a)), report.Pct(succ(i)), "")
	t.AddNote("paper: promotion rate down 11x, demoted-then-promoted down 50%%, success rate up 48%%")
	return Result{ID: "X1", Caption: "Active-LRU scalars", Table: t}
}

func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
