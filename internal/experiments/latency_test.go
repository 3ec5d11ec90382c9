package experiments

import (
	"fmt"
	"hash/fnv"
	"strings"
	"testing"
)

// TestMT4ExpanderCDFGolden pins MT4's expander CDF block the way the
// sim goldens pin machine runs: fixed options, FNV digest over the CSV
// bytes. The digest covers both policies' cumulative columns, so any
// drift in the access-latency distribution — bucket bounds, counts,
// rounding — shows up here. Recapture (with a commit-message note) if
// simulation behavior legitimately changes.
func TestMT4ExpanderCDFGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("slow integration test")
	}
	res := MT4(Options{Pages: 8 * 1024, Minutes: 15, Seed: 1})
	csv, ok := res.Series["cdf_expander_2_1_1"]
	if !ok {
		t.Fatalf("MT4 series keys: %v", keys(res.Series))
	}
	lines := strings.Split(strings.TrimSpace(csv), "\n")
	if lines[0] != "le_ns,default,tpp" {
		t.Fatalf("CDF header = %q", lines[0])
	}
	if len(lines) < 3 {
		t.Fatalf("CDF block too short: %d lines", len(lines))
	}
	// Each policy column must be non-decreasing and end at 1.0000.
	last := strings.Split(lines[len(lines)-1], ",")
	for i, cell := range last[1:] {
		if cell != "1.0000" {
			t.Errorf("column %d ends at %s, want 1.0000", i+1, cell)
		}
	}
	h := fnv.New64a()
	h.Write([]byte(csv))
	digest := fmt.Sprintf("%dx%d h=%016x", len(lines)-1, len(last)-1, h.Sum64())
	const want = "3x2 h=53b261f333fe04dc"
	if digest != want {
		t.Errorf("expander CDF digest = %q, want %q", digest, want)
	}
}

func keys(m map[string]string) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}
