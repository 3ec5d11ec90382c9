package main

import (
	"fmt"
	"hash/fnv"
	"runtime"
	"sort"
	"time"

	"tppsim/internal/experiments"
)

// registryOptions is the fixed reduced scale at which the traced run of
// the registry workload runs every experiments.Registry() spec.
var registryOptions = experiments.Options{Pages: 4096, Minutes: 6}

// registryPasses is how many times that traced run runs every spec, one
// at a time; each spec reports its fastest run.
const registryPasses = 2

// registryIDs are the specs that report a per-spec wall time, fixed here so
// the metric set does not change when the registry grows. Every registry
// spec runs either way.
var registryIDs = []string{
	"Fig2", "Fig3", "Fig4", "Fig5", "Fig7", "Fig8", "Fig9", "Fig10", "Fig11",
	"Table1", "Fig14", "Fig15", "Fig16", "Fig17", "Fig18", "Table2", "Fig19",
	"Table3", "Table4", "X1", "X2", "X3", "MT1", "MT2", "MT3", "MT4", "MT5", "MT6",
}

// specRun is one spec's outcome in one pass.
type specRun struct {
	seconds  float64
	digest   uint64
	panicked string
}

// runSpec runs one spec, turning a panic into a failed operation.
func runSpec(s experiments.Spec, o experiments.Options, t *tracer, parent int32) (r specRun) {
	sp := t.begin("experiments."+s.ID+".Run", parent)
	start := time.Now()
	defer func() {
		r.seconds = time.Since(start).Seconds()
		t.end(sp)
		if p := recover(); p != nil {
			r.panicked = fmt.Sprint(p)
		}
	}()
	r.digest = digest(s.Run(o))
	return r
}

// digest fingerprints everything a spec renders: table cells, notes and
// figure series.
func digest(r experiments.Result) uint64 {
	h := fnv.New64a()
	put := func(s string) { h.Write([]byte(s)); h.Write([]byte{0}) }
	put(r.ID)
	if t := r.Table; t != nil {
		put(t.Title)
		for _, c := range t.Columns {
			put(c)
		}
		for _, row := range t.Rows {
			for _, c := range row {
				put(c)
			}
		}
		for _, n := range t.Notes {
			put(n)
		}
	}
	keys := make([]string, 0, len(r.Series))
	for k := range r.Series {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		put(k)
		put(r.Series[k])
	}
	return h.Sum64()
}

// timeRegistry runs every registry spec registryPasses times, one at a
// time, with a span around each, and reports each spec's fastest run as
// experiments.<ID>.wall_s. Every pass uses the benchmark seed, so a spec
// fails one operation when it panics (recovered, and the passes go on) or
// when its output differs from its first pass.
func timeRegistry(o opts, rep *report, t *tracer) {
	specs := experiments.Registry()
	so := registryOptions
	so.Seed = o.seed
	root := t.begin("experiments", -1)
	defer t.end(root)
	first := map[string]specRun{}
	best := map[string]float64{}
	for pass := 0; pass < registryPasses; pass++ {
		runtime.GC()
		for _, s := range specs {
			r := runSpec(s, so, t, root)
			rep.attempted++
			ref, seen := first[s.ID]
			switch {
			case r.panicked != "":
				rep.fail(1, "pass %d: %s panicked: %s", pass, s.ID, r.panicked)
			case !seen:
				first[s.ID] = r
			case ref.panicked == "" && r.digest != ref.digest:
				rep.fail(1, "pass %d: %s output differs from pass 0 on the same seed", pass, s.ID)
			}
			if b, ok := best[s.ID]; !ok || r.seconds < b {
				best[s.ID] = r.seconds
			}
		}
	}
	for _, id := range registryIDs {
		rep.set("experiments."+id+".wall_s", best[id])
	}
	rep.notef("registry: %d passes of %d specs at %d pages x %d minutes", registryPasses, len(specs), so.Pages, so.Minutes)
}
