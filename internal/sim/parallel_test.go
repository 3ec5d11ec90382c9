package sim

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"tppsim/internal/core"
	"tppsim/internal/fault"
	"tppsim/internal/mem"
	"tppsim/internal/probe"
	"tppsim/internal/tier"
	"tppsim/internal/tracker"
	"tppsim/internal/vmstat"
	"tppsim/internal/workload"
)

// parallelRun is everything a run exposes that the determinism contract
// covers: scalars, global and per-node vmstat, the sampled series, the
// latency histograms, and the recorded trace bytes.
type parallelRun struct {
	scalars string
	global  vmstat.Snapshot
	nodes   []vmstat.Snapshot
	series  string
	lat     *probe.LatencySet
	trace   []byte
	workers int
}

func runWithWorkers(t *testing.T, base func() Config, workers int, dir string) parallelRun {
	t.Helper()
	cfg := base()
	cfg.Workers = workers
	path := filepath.Join(dir, fmt.Sprintf("w%d.trace", workers))
	cfg.RecordTo = path
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := m.Run()
	if res.Failed {
		t.Fatalf("workers=%d run failed: %s", workers, res.FailReason)
	}
	if err := m.RecordError(); err != nil {
		t.Fatalf("workers=%d recording failed: %v", workers, err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	out := parallelRun{
		scalars: fmt.Sprintf("%v/%v/%v", res.NormalizedThroughput, res.AvgLocalTraffic, res.AvgLatencyNs),
		global:  m.Stat().Snapshot(),
		lat:     res.LatencyHist,
		trace:   raw,
		workers: res.Workers,
	}
	for n := 0; n < m.Stat().NumNodes(); n++ {
		out.nodes = append(out.nodes, m.Stat().NodeSnapshot(mem.NodeID(n)))
	}
	if res.NodeSeries != nil {
		out.series = seriesDigest(res.NodeSeries)
	}
	return out
}

// TestParallelBitIdentical is the parallel core's contract test:
// sweeping Workers over {1, 2, 4, 8} across the cxl, dualsocket, and
// expander presets — with trackers, sampling, probes, and faults each
// enabled somewhere in the matrix — must reproduce the serial run bit
// for bit: scalars, global and per-node vmstat, the sampled series
// digest, the latency histograms, and the recorded trace bytes.
func TestParallelBitIdentical(t *testing.T) {
	cases := []struct {
		name string
		base func() Config
	}{
		{"cxl-tracked", func() Config {
			return Config{
				Seed: 7, Policy: core.TPP(),
				Workload: workload.Catalog["Web1"](8 * 1024),
				Topology: tier.PresetCXL(2, 1),
				Minutes:  6,
				Tracker:  tracker.Config{Kind: "idlepage"},
			}
		}},
		{"dualsocket-sampled-probed", func() Config {
			return Config{
				Seed: 7, Policy: core.TPP(),
				Workload:         workload.Catalog["Cache2"](8 * 1024),
				Topology:         tier.PresetDualSocket(),
				Minutes:          6,
				SampleEveryTicks: 1,
				ProbeLatency:     true,
				ProbePhases:      true,
			}
		}},
		{"expander-faulted", func() Config {
			return Config{
				Seed: 7, Policy: core.TPP(),
				Workload:     workload.Catalog["Web1"](8 * 1024),
				Topology:     tier.PresetExpander(2, 1, 1),
				Minutes:      10,
				ProbeLatency: true,
				Faults: fault.Schedule{Seed: 11, Events: []fault.Event{
					{Kind: fault.MigFailBegin, Node: -1, At: 60, Until: 300, Prob: 0.2},
					{Kind: fault.LatencyDegrade, Node: 1, At: 90, Until: 240, Mult: 3, Jitter: 0.1},
					{Kind: fault.NodeOffline, Node: 2, At: 120, Until: 360},
				}},
			}
		}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			serial := runWithWorkers(t, tc.base, 1, dir)
			if serial.workers != 1 {
				t.Fatalf("serial run reports workers=%d", serial.workers)
			}
			for _, w := range []int{2, 4, 8} {
				par := runWithWorkers(t, tc.base, w, dir)
				if par.workers != w {
					t.Errorf("workers=%d run reports workers=%d", w, par.workers)
				}
				if par.scalars != serial.scalars {
					t.Errorf("workers=%d scalars = %s, serial %s", w, par.scalars, serial.scalars)
				}
				if par.global != serial.global {
					t.Errorf("workers=%d global vmstat diverged from serial", w)
				}
				for n := range serial.nodes {
					if par.nodes[n] != serial.nodes[n] {
						t.Errorf("workers=%d node %d vmstat diverged from serial", w, n)
					}
				}
				if par.series != serial.series {
					t.Errorf("workers=%d series digest = %s, serial %s", w, par.series, serial.series)
				}
				if !reflect.DeepEqual(par.lat, serial.lat) {
					t.Errorf("workers=%d latency histograms diverged from serial", w)
				}
				if string(par.trace) != string(serial.trace) {
					t.Errorf("workers=%d trace bytes diverged from serial (%d vs %d bytes)",
						w, len(par.trace), len(serial.trace))
				}
			}
		})
	}
}

// TestParallelWorkersResolve pins the knob's semantics: the zero value
// and 1 stay on the serial path (no stage pool — the bench gates and
// goldens depend on unset configs not going parallel), explicit counts
// are literal, and WorkersAuto resolves to GOMAXPROCS.
func TestParallelWorkersResolve(t *testing.T) {
	if got := resolveWorkers(0); got != 1 {
		t.Errorf("resolveWorkers(0) = %d, want 1", got)
	}
	if got := resolveWorkers(1); got != 1 {
		t.Errorf("resolveWorkers(1) = %d, want 1", got)
	}
	if got := resolveWorkers(6); got != 6 {
		t.Errorf("resolveWorkers(6) = %d, want 6", got)
	}
	if got, want := resolveWorkers(WorkersAuto), runtime.GOMAXPROCS(0); got != want {
		t.Errorf("resolveWorkers(WorkersAuto) = %d, want GOMAXPROCS %d", got, want)
	}
	mk := func(workers int) *Machine {
		m, err := New(Config{
			Seed: 1, Policy: core.TPP(),
			Workload: workload.Catalog["Cache2"](2 * 1024),
			Topology: tier.PresetCXL(2, 1),
			Minutes:  1,
			Workers:  workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	if m := mk(0); m.par != nil {
		t.Error("zero-value Workers built a stage pool; unset configs must stay serial")
	}
	if m := mk(4); m.par == nil {
		t.Error("Workers=4 built no stage pool")
	} else if len(m.par.shards) != 4 {
		t.Errorf("Workers=4 pool has %d shards, want 4", len(m.par.shards))
	}
}

// TestParallelRaceStress drives a Workers>1 machine through many ticks
// of churn, growth, faults, and migration so the race detector (CI runs
// this package under -race) actually exercises concurrent shards
// translating and warming against the full daemon set. Correctness of
// the results is pinned by TestParallelBitIdentical; this test is about
// the interleavings.
func TestParallelRaceStress(t *testing.T) {
	cfg := Config{
		Seed: 3, Policy: core.TPP(),
		Workload: workload.Catalog["Web1"](8 * 1024),
		Topology: tier.PresetExpander(2, 1, 1),
		Minutes:  8,
		Workers:  4,
		Faults: fault.Schedule{Seed: 5, Events: []fault.Event{
			{Kind: fault.NodeOffline, Node: 2, At: 120, Until: 300},
			{Kind: fault.MigFailBegin, Node: -1, At: 30, Until: 400, Prob: 0.3},
		}},
	}
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := m.Run()
	if res.Failed {
		t.Fatalf("stress run failed: %s", res.FailReason)
	}
	if res.Workers != 4 {
		t.Errorf("stress run reports workers=%d, want 4", res.Workers)
	}
}
