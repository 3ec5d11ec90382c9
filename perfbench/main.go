// Command perfbench is tppsim's benchmark. It drives the simulator from
// outside, through the same entry points a user's program calls
// (sim.New, Machine.Step, Machine.Run, the experiments registry, the page
// table and the workload draw), measures how fast the simulator runs, and
// checks that what it simulated is correct.
//
//	perfbench --workload cache1-steady --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it
// prints the per-layer metrics and the tracing overhead instead. Human
// readable lines come first; the last line of standard output is one
// JSON object: {"correct", "attempted", "failed", "metrics"}. Any error
// exits non-zero without that line. README.md explains the workloads,
// the metrics and which layer metric moves which end-to-end one.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// opts are the benchmark's command-line arguments.
type opts struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	out      string
}

func main() {
	var o opts
	var traceFlag int
	var rssRun bool
	flag.StringVar(&o.workload, "workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
	flag.Uint64Var(&o.seed, "seed", 1, "input seed; the same seed builds the same inputs")
	flag.Float64Var(&o.seconds, "seconds", 10, "length of the measured window in host seconds")
	flag.IntVar(&traceFlag, "trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	flag.StringVar(&o.out, "out", "", "directory for the traced run's span file (none when empty)")
	flag.BoolVar(&rssRun, "rss-run", false, "internal: set up one machine, step it briefly and exit (peak RSS probe)")
	flag.Parse()
	// The simulator steps serially, so one CPU runs it. With a second P
	// the collector's background work runs on the other CPU, which on a
	// small virtual machine may share a physical core with the first: on
	// a 2-vCPU host that made the slowest experiments registry spec
	// spread 0.21 across five seeds, against 0.08 with one P, and was no
	// faster.
	runtime.GOMAXPROCS(1)
	if err := validate(&o, traceFlag); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	if rssRun {
		if err := rssChild(o); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: rss run:", err)
			os.Exit(1)
		}
		return
	}
	rep, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := rep.emit(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(line)
}

func validate(o *opts, traceFlag int) error {
	if !knownWorkload(o.workload) {
		return fmt.Errorf("unknown --workload %q (want one of %s)", o.workload, strings.Join(workloadNames(), ", "))
	}
	if o.seed == 0 {
		return errors.New("--seed must be positive")
	}
	if !(o.seconds > 0) || o.seconds > 600 {
		return fmt.Errorf("--seconds %v out of range (0, 600]", o.seconds)
	}
	if traceFlag != 0 && traceFlag != 1 {
		return fmt.Errorf("--trace %d: want 0 or 1", traceFlag)
	}
	o.trace = traceFlag == 1
	return nil
}

func workloadNames() []string {
	var names []string
	for _, s := range machineSpecs {
		names = append(names, s.name)
	}
	sort.Strings(names)
	return names
}

func knownWorkload(name string) bool {
	for _, n := range workloadNames() {
		if n == name {
			return true
		}
	}
	return false
}

func run(o opts) (*report, error) {
	return benchMachine(machineSpecByName(o.workload), o)
}

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// e2eMetrics are printed by every untraced run, in this order. Timings
// are host time; model_* are simulated results.
var e2eMetrics = []metricDef{
	{"sim_s_per_s", "s/s"},
	{"tick_us_p50", "us"},
	{"tick_us_p99", "us"},
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"peak_rss_mb", "MB"},
	{"sim_bytes_per_page", "B/page"},
	{"model_throughput_pct", "%"},
	{"model_local_pct", "%"},
}

// layerMetrics are printed by every traced run. A layer the workload
// does not exercise reports 0 (README.md lists which apply where).
var layerMetrics = func() []metricDef {
	var defs []metricDef
	for _, ph := range phaseNames {
		defs = append(defs,
			metricDef{"sim.phase." + ph + ".us_per_tick", "us"},
			metricDef{"sim.phase." + ph + ".p99_us", "us"})
	}
	defs = append(defs,
		metricDef{"pagetable.translate_ns_per_vpn.dense4k", "ns"},
		metricDef{"pagetable.translate_ns_per_vpn.extent4k", "ns"},
		metricDef{"pagetable.translate_ns_per_vpn.extent2m", "ns"},
		metricDef{"pagetable.extent_splits_per_tick", "1/tick"},
		metricDef{"pagetable.extent_merges_per_tick", "1/tick"},
		metricDef{"pagetable.extents", "count"},
		metricDef{"workload.draw_ns_per_access", "ns"},
		metricDef{"workload.accesses_per_tick", "1/tick"},
		metricDef{"alloc.pgalloc_per_tick", "1/tick"},
		metricDef{"alloc.allocstall_per_tick", "1/tick"},
		metricDef{"reclaim.pgscan_per_tick", "1/tick"},
		metricDef{"reclaim.reclaimed_per_scanned", "ratio"},
		metricDef{"migrate.pgmigrate_per_tick", "1/tick"},
		metricDef{"migrate.fail_ratio", "ratio"},
		metricDef{"numab.pages_scanned_per_tick", "1/tick"},
		metricDef{"numab.hint_faults_per_tick", "1/tick"},
		metricDef{"numab.promote_success_ratio", "ratio"},
		metricDef{"sim.allocs_per_tick", "1/tick"},
	)
	for _, id := range registryIDs {
		defs = append(defs, metricDef{"experiments." + id + ".wall_s", "s"})
	}
	return append(defs,
		metricDef{"trace.untraced_sim_s_per_s", "s/s"},
		metricDef{"trace.traced_sim_s_per_s", "s/s"},
		metricDef{"trace.overhead_sim_s_per_s", "s/s"},
	)
}()

// report accumulates one run's outcome: operations attempted and failed,
// metric values, and human-readable notes printed before the JSON line.
type report struct {
	attempted int64
	failed    int64
	values    map[string]float64
	notes     []string
}

func newReport() *report { return &report{values: map[string]float64{}} }

func (r *report) set(name string, v float64) { r.values[name] = v }

func (r *report) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// fail records n failed operations and why.
func (r *report) fail(n int64, format string, args ...any) {
	r.failed += n
	r.notef("FAILED: "+format, args...)
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// emit prints the notes and the metric table and returns the final JSON
// line. Every end-to-end metric must have been set; a per-layer metric
// that was not is a layer the workload does not exercise, and reads 0.
func (r *report) emit(o opts) (string, error) {
	defs := e2eMetrics
	if o.trace {
		defs = layerMetrics
		for _, d := range defs {
			if _, ok := r.values[d.name]; !ok {
				r.values[d.name] = 0
			}
		}
	}
	for _, n := range r.notes {
		fmt.Println(n)
	}
	res := result{Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricValue{}}
	if res.Attempted < 1 {
		return "", errors.New("no operation attempted")
	}
	res.Correct = r.failed == 0
	fmt.Printf("%-44s %16s  %s\n", o.workload+" seed="+fmt.Sprint(o.seed), "value", "unit")
	for _, d := range defs {
		v, ok := r.values[d.name]
		if !ok {
			return "", fmt.Errorf("metric %s was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return "", fmt.Errorf("metric %s is not finite: %v", d.name, v)
		}
		fmt.Printf("%-44s %16.6g  %s\n", d.name, v, d.unit)
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	fmt.Printf("attempted=%d failed=%d correct=%v\n", res.Attempted, res.Failed, res.Correct)
	b, err := json.Marshal(res)
	return string(b), err
}

// deadline returns when a window of the given length starting now ends.
func deadline(seconds float64) time.Time {
	return time.Now().Add(time.Duration(seconds * float64(time.Second)))
}
