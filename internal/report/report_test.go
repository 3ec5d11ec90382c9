package report

import (
	"strings"
	"testing"

	"tppsim/internal/metrics"
)

func TestTableRendering(t *testing.T) {
	tbl := &Table{
		Title:   "demo",
		Columns: []string{"name", "value"},
	}
	tbl.AddRow("alpha", "1")
	tbl.AddRow("a-very-long-name", "2")
	tbl.AddNote("a note %d", 7)
	out := tbl.String()
	if !strings.HasPrefix(out, "demo\n") {
		t.Fatalf("missing title:\n%s", out)
	}
	for _, want := range []string{"name", "value", "alpha", "a-very-long-name", "note: a note 7"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q:\n%s", want, out)
		}
	}
	// Alignment: every data line should have the same prefix width up to
	// the second column.
	lines := strings.Split(out, "\n")
	idx := strings.Index(lines[1], "value")
	if strings.Index(lines[3], "1") != idx && strings.Index(lines[4], "2") != idx {
		t.Fatalf("columns not aligned:\n%s", out)
	}
}

// TestPhaseTableNil covers profiling off: PhaseProfiler.Hist returns
// nil then, and the table must render empty instead of panicking.
func TestPhaseTableNil(t *testing.T) {
	tbl := PhaseTable(nil)
	if len(tbl.Rows) != 0 || len(tbl.Notes) != 0 {
		t.Fatalf("nil profiler rendered rows %v, notes %v", tbl.Rows, tbl.Notes)
	}
	if out := tbl.String(); !strings.HasPrefix(out, "Tick-phase profile") {
		t.Fatalf("missing title:\n%s", out)
	}
}

func TestTableShortRow(t *testing.T) {
	tbl := &Table{Columns: []string{"a", "b", "c"}}
	tbl.AddRow("only-one")
	out := tbl.String()
	if !strings.Contains(out, "only-one") {
		t.Fatalf("short row dropped:\n%s", out)
	}
}

func TestFormatters(t *testing.T) {
	if Pct(0.125) != "12.5%" {
		t.Fatalf("Pct = %q", Pct(0.125))
	}
	if F1(3.14159) != "3.1" {
		t.Fatalf("F1 = %q", F1(3.14159))
	}
}

func TestSeriesCSV(t *testing.T) {
	a := &metrics.Series{Name: "a"}
	b := &metrics.Series{Name: "b"}
	for i := 0; i < 3; i++ {
		a.Append(float64(i), float64(i)*2)
	}
	b.Append(0, 9)
	out := SeriesCSV("minute", a, b)
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if lines[0] != "minute,a,b" {
		t.Fatalf("header = %q", lines[0])
	}
	if len(lines) != 4 {
		t.Fatalf("rows = %d, want 4:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[1], "0.00,0.0000,9.0000") {
		t.Fatalf("row 1 = %q", lines[1])
	}
	// Shorter series renders empty cells.
	if !strings.HasSuffix(lines[2], ",") {
		t.Fatalf("row 2 should end with empty cell: %q", lines[2])
	}
}
