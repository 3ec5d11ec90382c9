package trace_test

import (
	"bytes"
	"io"
	"path/filepath"
	"strconv"
	"testing"

	"tppsim/internal/core"
	"tppsim/internal/mem"
	"tppsim/internal/sim"
	"tppsim/internal/tier"
	"tppsim/internal/trace"
	"tppsim/internal/vmstat"
	"tppsim/internal/workload"
)

// recordRun records one fixed run and returns the recording machine and
// the loaded trace.
func recordRun(t *testing.T, dir string) (*sim.Machine, *trace.Trace) {
	t.Helper()
	path := filepath.Join(dir, "v3.trace")
	m, err := sim.New(sim.Config{
		Seed:     11,
		Policy:   core.TPP(),
		Workload: workload.Catalog["Cache2"](4 * 1024),
		Topology: tier.PresetCXL(2, 1),
		Minutes:  5,
		RecordTo: path,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res := m.Run(); res.Failed {
		t.Fatal(res.FailReason)
	}
	if err := m.RecordError(); err != nil {
		t.Fatal(err)
	}
	tr, err := trace.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	return m, tr
}

// TestTickEndDeltasSumToFinalCounters pins the v3 payload's meaning:
// accumulating every TickEnd's per-node deltas over the whole stream
// reproduces the recording machine's final per-node (and hence global)
// vmstat counters exactly.
func TestTickEndDeltasSumToFinalCounters(t *testing.T) {
	m, tr := recordRun(t, t.TempDir())
	if tr.Header.Version != trace.Version {
		t.Fatalf("recorded version %d, want %d", tr.Header.Version, trace.Version)
	}
	sums := make([]vmstat.Snapshot, m.Stat().NumNodes())
	r := tr.Events()
	ticks := 0
	for {
		e, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if e.Op != trace.OpTickEnd {
			continue
		}
		ticks++
		if e.DeltaNodes != len(sums) {
			t.Fatalf("tick %d records %d nodes, machine has %d", ticks, e.DeltaNodes, len(sums))
		}
		for _, d := range e.Deltas {
			sums[d.Node][d.Counter] += d.Delta
		}
	}
	if ticks == 0 {
		t.Fatal("no ticks in trace")
	}
	for n := range sums {
		want := m.Stat().NodeSnapshot(mem.NodeID(n))
		if sums[n] != want {
			t.Errorf("node %d: delta sum diverges from final counters:\n got:\n%s want:\n%s",
				n, sums[n].String(), want.String())
		}
	}
}

// TestV2TraceStillReplays pins backward compatibility: a version-2
// stream (bare TickEnd markers, no per-node deltas) must load and
// replay to the same global scalars as the v3 recording it was derived
// from — the deltas are observability payload, not replay input.
func TestV2TraceStillReplays(t *testing.T) {
	dir := t.TempDir()
	m, tr := recordRun(t, dir)

	// Re-encode the stream as version 2: same header fields and events,
	// deltas stripped by the v2 writer.
	var buf bytes.Buffer
	h2 := tr.Header
	h2.Version = 2
	w := trace.NewWriter(&buf, h2)
	r := tr.Events()
	for {
		e, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		w.WriteEvent(e)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	tr2, err := trace.Decode(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if tr2.Header.Version != 2 {
		t.Fatalf("re-encoded version = %d", tr2.Header.Version)
	}
	if tr2.Size() >= tr.Size() {
		t.Errorf("v2 stream (%d B) not smaller than v3 (%d B) — deltas not stripped?", tr2.Size(), tr.Size())
	}

	run := func(tr *trace.Trace) (string, vmstat.Snapshot) {
		rm, err := sim.New(sim.Config{
			Seed:     11,
			Policy:   core.TPP(),
			Workload: tr.Replayer(trace.ReplayOptions{}),
			Topology: tier.PresetCXL(2, 1),
			Minutes:  5,
		})
		if err != nil {
			t.Fatal(err)
		}
		res := rm.Run()
		if res.Failed {
			t.Fatal(res.FailReason)
		}
		return strconv.FormatFloat(res.NormalizedThroughput, 'g', -1, 64) + "/" +
			strconv.FormatFloat(res.AvgLatencyNs, 'g', -1, 64), rm.Stat().Snapshot()
	}
	s3, v3 := run(tr)
	s2, v2 := run(tr2)
	if s2 != s3 {
		t.Errorf("v2 replay scalars %s != v3 replay scalars %s", s2, s3)
	}
	if v2 != v3 {
		t.Errorf("v2 replay vmstat diverges from v3 replay:\n v2:\n%s v3:\n%s", v2.String(), v3.String())
	}
	// And both reproduce the recording machine's global counters.
	if got := m.Stat().Snapshot(); v2 != got {
		t.Errorf("v2 replay vmstat diverges from the recording:\n got:\n%s want:\n%s", v2.String(), got.String())
	}
}
