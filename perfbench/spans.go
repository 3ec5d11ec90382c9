package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the call (the simulator itself carries no spans). Times are host
// nanoseconds since the tracer started; parent is the index of the
// enclosing span, or -1.
type span struct {
	name       string
	parent     int32
	start, end int64
}

// tracer keeps spans in memory and writes them out once, at exit. The
// buffer is allocated up front so recording a span allocates nothing;
// spans past its capacity are counted but not kept.
type tracer struct {
	t0      time.Time
	spans   []span
	dropped int
}

// maxSpans bounds the in-memory span buffer (~4 MB).
const maxSpans = 1 << 17

func newTracer() *tracer {
	return &tracer{t0: time.Now(), spans: make([]span, 0, maxSpans)}
}

// begin opens a span and returns its id; a nil tracer records nothing.
func (t *tracer) begin(name string, parent int32) int32 {
	if t == nil {
		return -1
	}
	if len(t.spans) == cap(t.spans) {
		t.dropped++
		return -1
	}
	t.spans = append(t.spans, span{name: name, parent: parent, start: int64(time.Since(t.t0)), end: -1})
	return int32(len(t.spans) - 1)
}

// end closes span id.
func (t *tracer) end(id int32) {
	if t == nil || id < 0 {
		return
	}
	t.spans[id].end = int64(time.Since(t.t0))
}

// summary prints, per span name, the call count, total time and self
// time (total minus the time covered by child spans).
func (t *tracer) summary(r *report) {
	type agg struct {
		n           int
		total, self int64
	}
	by := map[string]*agg{}
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.parent >= 0 && s.end >= 0 {
			child[s.parent] += s.end - s.start
		}
	}
	for i, s := range t.spans {
		if s.end < 0 {
			continue
		}
		a := by[s.name]
		if a == nil {
			a = &agg{}
			by[s.name] = a
		}
		a.n++
		a.total += s.end - s.start
		a.self += s.end - s.start - child[i]
	}
	names := make([]string, 0, len(by))
	for n := range by {
		names = append(names, n)
	}
	sort.Strings(names)
	r.notef("spans: %d kept, %d dropped past the buffer", len(t.spans), t.dropped)
	for _, n := range names {
		a := by[n]
		r.notef("  span %-36s n=%-7d total=%10.3f ms  self=%10.3f ms", n, a.n, float64(a.total)/1e6, float64(a.self)/1e6)
	}
}

// write stores the spans as tab-separated lines in dir/spans-<workload>.tsv.
func (t *tracer) write(dir, workload string) (string, error) {
	if dir == "" {
		return "", nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "spans-"+workload+".tsv")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id\tparent\tname\tstart_ns\tend_ns")
	for i, s := range t.spans {
		fmt.Fprintf(w, "%d\t%d\t%s\t%d\t%d\n", i, s.parent, s.name, s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
