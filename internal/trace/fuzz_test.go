package trace

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"
	"testing"

	"tppsim/internal/fault"
	"tppsim/internal/mem"
	"tppsim/internal/pagetable"
	"tppsim/internal/series"
	"tppsim/internal/tier"
	"tppsim/internal/vmstat"
)

// fuzzSeedTrace renders one small but feature-complete trace at the
// given format version: regions of every page type, delta-encoded
// accesses with large jumps, and — where the version supports them —
// a topology block, per-node counter deltas with residency levels, a
// fault schedule, and an applied fault edge.
func fuzzSeedTrace(f *testing.F, version int) []byte {
	f.Helper()
	h := Header{
		Version:     version,
		Name:        "fuzz-seed",
		TotalPages:  4096,
		WarmupTicks: 7,
	}
	h.Model.CPUServiceNs, h.Model.StallsPerOp = 312.5, 1.25
	if version >= 2 {
		topo, err := tier.PresetExpander(2, 1, 1).Build(4096, 0.1)
		if err != nil {
			f.Fatal(err)
		}
		spec := topo.Spec()
		h.Topology = &spec
	}
	if version >= 6 {
		h.Faults = &fault.Schedule{Seed: 3, Events: []fault.Event{
			{Kind: fault.NodeOffline, Node: 2, At: 10, Until: 20},
			{Kind: fault.MigFailBegin, Node: -1, At: 5, Prob: 0.5, MaxRetries: 2},
		}}
	}
	if version >= 7 {
		h.Tracker = "idlepage:scan=8,gran=2,regions=128,samples=128,halflife=32,range=64"
	}
	var buf bytes.Buffer
	w := NewWriter(&buf, h)
	w.Mmap(pagetable.Region{Start: 0, Pages: 1 << 16, Type: mem.Anon}, 0.5)
	w.Mmap(pagetable.Region{Start: 1 << 20, Pages: 64, Type: mem.File}, 0.96)
	w.StartEnd()
	w.Touch(3)
	w.Access(1<<20 + 5)
	w.Access(12) // large backward delta
	if version >= 3 {
		deltas := make([]vmstat.Snapshot, 3)
		deltas[0][0], deltas[2][1] = 7, 9
		var levels []series.Levels
		if version >= 4 {
			levels = []series.Levels{{Resident: 5, Anon: 3, File: 2}, {}, {Resident: 1}}
		}
		w.TickEndDeltas(deltas, levels)
	} else {
		w.TickEnd()
	}
	if version >= 6 {
		w.Fault(fault.Edge{Kind: fault.NodeOffline, Node: 2, Tick: 10})
	}
	w.Munmap(pagetable.Region{Start: 1 << 20, Pages: 64, Type: mem.File})
	w.TickEnd()
	if err := w.Close(); err != nil {
		f.Fatalf("v%d seed: %v", version, err)
	}
	return buf.Bytes()
}

// FuzzTraceReader throws arbitrary bytes at the full decode path —
// header (magic, topology block, fault schedule) and event stream —
// and requires it to either produce events or return an error. It must
// never panic, loop forever, or allocate absurdly; corrupt and
// truncated input is an error, not a crash.
func FuzzTraceReader(f *testing.F) {
	for v := 1; v <= Version; v++ {
		f.Add(fuzzSeedTrace(f, v))
	}
	// Degenerate shapes the mutator should start from too.
	f.Add([]byte{})
	f.Add([]byte(Magic))
	f.Add([]byte("NOTATRACE___"))
	valid := fuzzSeedTrace(f, Version)
	f.Add(valid[:len(valid)/2])
	// An overlong access varint, ten continuation bytes long, with one
	// more byte after it or none.
	overlong := append(slices.Clone(valid[:len(valid)-1]), byte(OpAccess)) // end marker dropped
	overlong = append(overlong, bytes.Repeat([]byte{0xff}, binary.MaxVarintLen64)...)
	f.Add(overlong)
	f.Add(append(slices.Clone(overlong), 0x01))

	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := NewReader(bytes.NewReader(data))
		if err != nil {
			return // malformed header: rejected cleanly
		}
		// Every event consumes at least its opcode byte, so the stream
		// can never yield more events than it has bytes; anything past
		// that bound means the reader stopped consuming input.
		for i := 0; i <= len(data); i++ {
			if _, err := r.Next(); err != nil {
				return // io.EOF or a decode error: both fine
			}
		}
		t.Fatalf("reader yielded more events than the %d input bytes", len(data))
	})
}

// FuzzReplayBatch holds the batch draw path to the scalar one on
// arbitrary streams: for bytes that pass Decode, a looping Replayer
// driven through NextAccessBatch and one driven through NextAccess must
// hand out the same VPNs, make the same machine calls and end with the
// same error, without panicking.
func FuzzReplayBatch(f *testing.F) {
	for v := 1; v <= Version; v++ {
		f.Add(fuzzSeedTrace(f, v))
	}
	for _, tr := range []*Trace{
		PhaseShift(GenConfig{Pages: 64, Minutes: 1, AccessesPerTick: 8, Seed: 1}),
		AdversarialChurn(GenConfig{Pages: 64, Minutes: 1, AccessesPerTick: 8, Seed: 1}),
	} {
		f.Add(append(encodeHeader(tr.Header), tr.data...))
	}

	const ticks = 40
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := Decode(data)
		if err != nil {
			return
		}
		run := func(batch bool) ([]pagetable.VPN, []string, error) {
			rp := tr.Replayer(ReplayOptions{Loop: true})
			ctx := &stubCtx{log: []string{}}
			var vpns []pagetable.VPN
			buf := make([]pagetable.VPN, 7) // odd size: batches split runs
			rp.Start(ctx)
			for tick := uint64(0); tick < ticks; tick++ {
				rp.Tick(ctx, tick)
				for {
					if batch {
						n := rp.NextAccessBatch(ctx, tick, buf)
						if n == 0 {
							break
						}
						vpns = append(vpns, buf[:n]...)
						continue
					}
					v, ok := rp.NextAccess(ctx, tick)
					if !ok {
						break
					}
					vpns = append(vpns, v)
				}
			}
			return vpns, ctx.log, rp.Err()
		}
		bv, blog, berr := run(true)
		sv, slog, serr := run(false)
		if fmt.Sprint(berr) != fmt.Sprint(serr) {
			t.Fatalf("errors differ:\n batch  %v\n scalar %v", berr, serr)
		}
		if !slices.Equal(bv, sv) {
			t.Fatalf("VPN sequences differ: batch %d accesses, scalar %d", len(bv), len(sv))
		}
		if !slices.Equal(blog, slog) {
			t.Fatalf("machine calls differ: batch %d, scalar %d", len(blog), len(slog))
		}
	})
}
