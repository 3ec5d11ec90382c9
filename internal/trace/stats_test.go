package trace_test

import (
	"bytes"
	"io"
	"path/filepath"
	"testing"

	"tppsim/internal/core"
	"tppsim/internal/sim"
	"tppsim/internal/tier"
	"tppsim/internal/trace"
	"tppsim/internal/vmstat"
	"tppsim/internal/workload"
)

// recordSampledRun records one run with the live series plane sampling
// at the given cadence and returns the machine and the loaded trace.
func recordSampledRun(t *testing.T, dir string, every, budget int) (*sim.Machine, *trace.Trace) {
	t.Helper()
	path := filepath.Join(dir, "sampled.trace")
	m, err := sim.New(sim.Config{
		Seed:             11,
		Policy:           core.TPP(),
		Workload:         workload.Catalog["Cache2"](4 * 1024),
		Topology:         tier.PresetCXL(2, 1),
		Minutes:          5,
		RecordTo:         path,
		SampleEveryTicks: every,
		SampleBudget:     budget,
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

// TestStatsBitIdenticalToLiveSeries pins the PR's convergence contract:
// the series trace.Stats reconstructs from a v4 trace's per-node
// TickEnd payload — counters AND residency levels — is bit-identical to
// the live-sampled series of the recording run, across cadences and
// through budget-forced coarsening.
func TestStatsBitIdenticalToLiveSeries(t *testing.T) {
	cases := []struct {
		name   string
		every  int
		budget int
	}{
		{"every-tick", 1, 512},
		{"cadence-7", 7, 512},
		{"coarsened", 1, 64}, // 300 ticks over a 64-sample budget coarsens thrice
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			m, tr := recordSampledRun(t, t.TempDir(), tc.every, tc.budget)
			live := m.Results().NodeSeries
			if live == nil || live.Len() == 0 {
				t.Fatal("live run sampled no series")
			}
			if !live.HasLevels() {
				t.Fatal("live series has no levels")
			}
			decoded, err := tr.Stats(trace.StatsOptions{
				SampleEvery:  uint64(tc.every),
				SampleBudget: tc.budget,
			})
			if err != nil {
				t.Fatal(err)
			}
			if !decoded.HasLevels() {
				t.Fatal("decoded series has no levels (v4 payload lost)")
			}
			if !decoded.Equal(live) {
				t.Fatalf("decoded series diverges from live-sampled series: live %d windows x %d ticks, decoded %d x %d",
					live.Len(), live.Cadence(), decoded.Len(), decoded.Cadence())
			}
			if tc.budget == 64 && decoded.Cadence() == uint64(tc.every) {
				t.Fatal("coarsening case never coarsened; the pin is weaker than intended")
			}
		})
	}
}

// TestStatsOnV3Trace pins backward compatibility: a v3 stream (counter
// deltas, no residency levels) still decodes — flows identical to the
// v4 decode, HasLevels false.
func TestStatsOnV3Trace(t *testing.T) {
	_, tr := recordSampledRun(t, t.TempDir(), 1, 512)

	// Re-encode as version 3: same events, levels stripped by the writer.
	var buf bytes.Buffer
	h3 := tr.Header
	h3.Version = 3
	w := trace.NewWriter(&buf, h3)
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
	tr3, err := trace.Decode(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if tr3.Size() >= tr.Size() {
		t.Errorf("v3 stream (%d B) not smaller than v4 (%d B) — levels not stripped?", tr3.Size(), tr.Size())
	}

	s4, err := tr.Stats(trace.StatsOptions{})
	if err != nil {
		t.Fatal(err)
	}
	s3, err := tr3.Stats(trace.StatsOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if s3.HasLevels() {
		t.Error("v3 decode claims levels")
	}
	if s3.Len() != s4.Len() || s3.Cadence() != s4.Cadence() {
		t.Fatalf("v3 decode shape %dx%d != v4 %dx%d", s3.Len(), s3.Cadence(), s4.Len(), s4.Cadence())
	}
	for n := 0; n < s4.Nodes(); n++ {
		for c := 0; c < vmstat.NumCounters; c++ {
			for i := 0; i < s4.Len(); i++ {
				if s3.Delta(n, vmstat.Counter(c), i) != s4.Delta(n, vmstat.Counter(c), i) {
					t.Fatalf("node %d %s window %d: v3 delta diverges", n, vmstat.Counter(c), i)
				}
			}
		}
	}
}

// TestStatsRejectsStreamsWithoutPlane pins the failure mode: v2 streams
// and generator traces carry no per-node tick data.
func TestStatsRejectsStreamsWithoutPlane(t *testing.T) {
	_, tr := recordSampledRun(t, t.TempDir(), 1, 512)
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
	if _, err := tr2.Stats(trace.StatsOptions{}); err == nil {
		t.Fatal("Stats accepted a v2 stream with no per-node data")
	}
}
