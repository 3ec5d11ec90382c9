package report

import (
	"fmt"
	"strings"

	"tppsim/internal/metrics"
	"tppsim/internal/probe"
	"tppsim/internal/series"
	"tppsim/internal/vmstat"
)

// Dur formats a nanosecond value compactly for tables (255ns, 8.2µs,
// 1.3ms, ...). The top histogram bucket's sentinel bound renders as
// "inf".
func Dur(ns uint64) string {
	switch {
	case ns == ^uint64(0):
		return "inf"
	case ns < 1_000:
		return fmt.Sprintf("%dns", ns)
	case ns < 1_000_000:
		return fmt.Sprintf("%.1fµs", float64(ns)/1e3)
	case ns < 1_000_000_000:
		return fmt.Sprintf("%.1fms", float64(ns)/1e6)
	default:
		return fmt.Sprintf("%.2fs", float64(ns)/1e9)
	}
}

// percentileRow renders one histogram as a percentile table row.
func percentileRow(t *Table, label string, h *probe.Histogram, fmtVal func(uint64) string) {
	s := h.Percentiles()
	if s.Count == 0 {
		t.AddRow(label, "0", "-", "-", "-", "-", "-", "-")
		return
	}
	t.AddRow(label,
		fmt.Sprintf("%d", s.Count),
		fmtVal(uint64(s.Mean)),
		fmtVal(s.P50), fmtVal(s.P90), fmtVal(s.P99), fmtVal(s.P999),
		fmtVal(h.Max()))
}

// PercentileTable renders a run's latency histogram set as one row per
// distribution: each node's access latency, the machine-wide merge, and
// the migration/allocstall/reclaim-batch histograms. labels name the
// nodes (NodeLabels shape); nil falls back to bare node numbers.
func PercentileTable(ls *probe.LatencySet, labels []string) *Table {
	if labels == nil {
		labels = NodeLabels(nil, len(ls.Access))
	}
	t := &Table{
		Title:   "Latency distributions",
		Columns: []string{"distribution", "count", "mean", "p50", "p90", "p99", "p99.9", "max"},
	}
	for i := range ls.Access {
		percentileRow(t, "access "+labels[i], &ls.Access[i], Dur)
	}
	total := ls.TotalAccess()
	percentileRow(t, "access all", &total, Dur)
	percentileRow(t, "promote", &ls.Promote, Dur)
	percentileRow(t, "demote", &ls.Demote, Dur)
	percentileRow(t, "allocstall", &ls.AllocStall, Dur)
	percentileRow(t, "reclaim batch", &ls.ReclaimBatch, func(v uint64) string {
		if v == ^uint64(0) {
			return "inf"
		}
		return fmt.Sprintf("%d", v)
	})
	t.AddNote("log2-bucketed: percentiles are bucket upper bounds (within one power of two of exact); reclaim batch is in pages, everything else in ns")
	return t
}

// PhaseTable renders a tick-phase profile: per phase the profiled tick
// count, the total wall-clock, its share of the whole, and the per-tick
// distribution. A nil profiler (profiling off) renders the titled,
// empty table.
func PhaseTable(p *probe.PhaseProfiler) *Table {
	t := &Table{
		Title:   "Tick-phase profile (host wall-clock)",
		Columns: []string{"phase", "ticks", "total", "share", "mean/tick", "p50", "p99"},
	}
	if p == nil {
		return t
	}
	total := p.TotalNs()
	for ph := probe.Phase(0); int(ph) < probe.NumPhases; ph++ {
		h := p.Hist(ph)
		if h.Count() == 0 {
			continue
		}
		share := 0.0
		if total > 0 {
			share = float64(h.Sum()) / float64(total)
		}
		t.AddRow(ph.String(),
			fmt.Sprintf("%d", h.Count()),
			Dur(h.Sum()),
			Pct(share),
			Dur(uint64(h.Mean())),
			Dur(h.Quantile(0.50)), Dur(h.Quantile(0.99)))
	}
	if ticks := p.Ticks(); ticks > 0 {
		t.AddNote("%d ticks profiled, %s total, %s mean/tick; migration time is inside its driving phase (demotion under reclaim, promotion under numab)",
			ticks, Dur(total), Dur(total/ticks))
	}
	return t
}

// HistogramPanel renders one histogram as an ASCII bar panel: one line
// per occupied bucket span with its upper bound, count, share bar, and
// cumulative fraction.
func HistogramPanel(h *probe.Histogram, title string, fmtVal func(uint64) string) string {
	if fmtVal == nil {
		fmtVal = Dur
	}
	n := h.Count()
	var b strings.Builder
	fmt.Fprintf(&b, "%s  (n=%d, mean=%s)\n", title, n, fmtVal(uint64(h.Mean())))
	if n == 0 {
		return b.String()
	}
	lo, hi := 0, probe.NumBuckets-1
	for lo < probe.NumBuckets && h.Bucket(lo) == 0 {
		lo++
	}
	for hi >= 0 && h.Bucket(hi) == 0 {
		hi--
	}
	var peak uint64
	for i := lo; i <= hi; i++ {
		if c := h.Bucket(i); c > peak {
			peak = c
		}
	}
	const width = 40
	var cum uint64
	for i := lo; i <= hi; i++ {
		c := h.Bucket(i)
		cum += c
		bar := 0
		if peak > 0 {
			bar = int(c * width / peak)
		}
		if c > 0 && bar == 0 {
			bar = 1
		}
		fmt.Fprintf(&b, "  <=%-9s %10d |%-*s| %5.1f%%\n",
			fmtVal(probe.BucketBound(i)), c, width, strings.Repeat("#", bar),
			100*float64(cum)/float64(n))
	}
	return b.String()
}

// CDFColumnsCSV renders a family of histograms over a shared domain as
// CSV CDF columns: one row per bucket across the family's occupied
// range, with the bucket's upper bound (the x axis, e.g. latency in ns)
// and each histogram's cumulative fraction at that bound. Ready for
// plotting the paper's Fig. 6-style access-latency CDFs — one named
// column per policy.
func CDFColumnsCSV(hists []*probe.Histogram, names []string) string {
	var b strings.Builder
	b.WriteString("le_ns")
	totals := make([]uint64, len(hists))
	lo, hi := probe.NumBuckets, -1
	for i, h := range hists {
		fmt.Fprintf(&b, ",%s", names[i])
		totals[i] = h.Count()
		for j := 0; j < probe.NumBuckets; j++ {
			if h.Bucket(j) != 0 {
				if j < lo {
					lo = j
				}
				if j > hi {
					hi = j
				}
			}
		}
	}
	b.WriteString("\n")
	cums := make([]uint64, len(hists))
	for j := lo; j <= hi; j++ {
		fmt.Fprintf(&b, "%d", probe.BucketBound(j))
		for i, h := range hists {
			cums[i] += h.Bucket(j)
			frac := 0.0
			if totals[i] > 0 {
				frac = float64(cums[i]) / float64(totals[i])
			}
			fmt.Fprintf(&b, ",%.4f", frac)
		}
		b.WriteString("\n")
	}
	return b.String()
}

// FlowDiffTable renders two sampled node series side by side: per node
// and counter, each run's whole-run total, the absolute delta, and the
// percent change ("new" when the counter only fires in B). Both series
// must describe machines with the same node count. Resident-at-end rows
// are included when both series carry levels. All-zero counters are
// skipped.
func FlowDiffTable(a, b *series.Series, labels []string) (*Table, error) {
	if a.Nodes() != b.Nodes() {
		return nil, fmt.Errorf("report: cannot diff series over %d vs %d nodes", a.Nodes(), b.Nodes())
	}
	if labels == nil {
		labels = NodeLabels(nil, a.Nodes())
	}
	t := &Table{
		Title:   "Per-node flow diff (A vs B, whole-run totals)",
		Columns: []string{"node", "counter", "A", "B", "delta", "delta%"},
	}
	// Union of the two series' active counters, A's order first.
	counters := a.ActiveCounters()
	seen := make(map[vmstat.Counter]bool, len(counters))
	for _, c := range counters {
		seen[c] = true
	}
	for _, c := range b.ActiveCounters() {
		if !seen[c] {
			counters = append(counters, c)
		}
	}
	diffCell := func(av, bv uint64) (string, string) {
		d := int64(bv) - int64(av)
		if av == 0 {
			if bv == 0 {
				return "0", "-"
			}
			return fmt.Sprintf("%+d", d), "new"
		}
		return fmt.Sprintf("%+d", d), fmt.Sprintf("%+.1f%%", 100*float64(d)/float64(av))
	}
	for n := 0; n < a.Nodes(); n++ {
		label := labels[n]
		for _, c := range counters {
			av, bv := a.DeltaTotal(n, c), b.DeltaTotal(n, c)
			if av == 0 && bv == 0 {
				continue
			}
			d, pct := diffCell(av, bv)
			t.AddRow(label, c.String(), fmt.Sprintf("%d", av), fmt.Sprintf("%d", bv), d, pct)
			label = "" // node label only on its first row
		}
		if a.HasLevels() && b.HasLevels() && a.Len() > 0 && b.Len() > 0 {
			av := a.Level(n, series.LevelResident, a.Len()-1)
			bv := b.Level(n, series.LevelResident, b.Len()-1)
			d, pct := diffCell(av, bv)
			t.AddRow(label, "resident (end)", fmt.Sprintf("%d", av), fmt.Sprintf("%d", bv), d, pct)
		}
	}
	t.AddNote("totals sum each counter over every sample window; delta%% is relative to A")
	return t, nil
}

// LatencyCDFSeries converts a latency set's per-policy total-access
// histograms into metrics.Series CDF curves for SeriesCSV-style output.
// Kept simple: x is the bucket bound in ns, y the cumulative fraction.
func LatencyCDFSeries(name string, h *probe.Histogram) *metrics.Series {
	s := &metrics.Series{Name: name}
	n := h.Count()
	if n == 0 {
		return s
	}
	var cum uint64
	for i := 0; i < probe.NumBuckets; i++ {
		c := h.Bucket(i)
		if c == 0 && cum == 0 {
			continue
		}
		cum += c
		s.Append(float64(probe.BucketBound(i)), float64(cum)/float64(n))
		if cum == n {
			break
		}
	}
	return s
}
