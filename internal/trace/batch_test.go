package trace

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"
	"strings"
	"testing"

	"tppsim/internal/mem"
	"tppsim/internal/pagetable"
	"tppsim/internal/xrand"
)

// stubCtx is a machine-free workload.Ctx: regions are handed out at
// increasing addresses and every call is logged, so two replays can be
// compared operation for operation.
type stubCtx struct {
	next pagetable.VPN
	rng  *xrand.RNG
	log  []string // nil: no logging
}

func (c *stubCtx) Mmap(pages uint64, t mem.PageType) pagetable.Region {
	r := pagetable.Region{Start: c.next, Pages: pages, Type: t}
	c.next += pagetable.VPN(pages)
	if c.log != nil {
		c.log = append(c.log, fmt.Sprintf("mmap %d+%d", r.Start, r.Pages))
	}
	return r
}

func (c *stubCtx) Munmap(r pagetable.Region) {
	if c.log != nil {
		c.log = append(c.log, fmt.Sprintf("munmap %d+%d", r.Start, r.Pages))
	}
}

func (c *stubCtx) Touch(v pagetable.VPN) {
	if c.log != nil {
		c.log = append(c.log, fmt.Sprintf("touch %d", v))
	}
}

func (c *stubCtx) RNG() *xrand.RNG { return c.rng }

// replayTicks drives rp for ticks ticks the way the simulator's batch
// loop does: Tick, then NextAccessBatch until it comes back empty.
func replayTicks(rp *Replayer, ctx *stubCtx, buf []pagetable.VPN, ticks int) {
	for tick := 0; tick < ticks; tick++ {
		rp.Tick(ctx, uint64(tick))
		for rp.NextAccessBatch(ctx, uint64(tick), buf) > 0 {
		}
	}
}

// TestReplayBatchNoAllocs pins the replay hot path as allocation-free:
// decoding, translating, housekeeping and the restart wraps of a
// looping AdvChurn trace make no heap allocation once the replayer's
// tables have grown to size.
func TestReplayBatchNoAllocs(t *testing.T) {
	const traceTicks = 60
	tr := AdversarialChurn(GenConfig{Pages: 2048, Minutes: 1, AccessesPerTick: 300, Seed: 3})
	rp := tr.Replayer(ReplayOptions{Loop: true})
	ctx := &stubCtx{}
	buf := make([]pagetable.VPN, 64)
	rp.Start(ctx)
	// One call covers two and a half passes, so two restart wraps.
	allocs := testing.AllocsPerRun(1, func() { replayTicks(rp, ctx, buf, traceTicks*5/2) })
	if err := rp.Err(); err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Fatalf("replay loop made %v allocations, want 0", allocs)
	}
}

// TestNextAccessBatchTruncatedMatchesNext pins the batch decoder's
// errors to Reader.Next's: a stream cut inside an access's varint fails
// with the same text, byte offset and tick either way.
func TestNextAccessBatchTruncatedMatchesNext(t *testing.T) {
	var b bytes.Buffer
	w := NewWriter(&b, Header{Name: "cut", TotalPages: 1 << 20})
	w.Mmap(pagetable.Region{Start: 0, Pages: 1 << 20, Type: mem.Anon}, 0)
	w.StartEnd()
	w.Access(1)
	w.Access(2)
	w.TickEnd()
	w.Access(3)
	w.Access(1 << 18) // a three-byte delta, cut after its first byte
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	tr, err := Decode(b.Bytes()[:b.Len()-2])
	if err != nil {
		t.Fatal(err)
	}

	r := tr.Events()
	var want error
	for want == nil {
		_, want = r.Next()
	}

	rp := tr.Replayer(ReplayOptions{})
	ctx := &stubCtx{}
	buf := make([]pagetable.VPN, 8)
	rp.Start(ctx)
	var got []int
	for tick := uint64(0); tick < 2; tick++ {
		rp.Tick(ctx, tick)
		got = append(got, rp.NextAccessBatch(ctx, tick, buf))
	}
	if fmt.Sprint(got) != "[2 1]" {
		t.Fatalf("batches returned %v accesses, want [2 1]", got)
	}
	if rp.Err() == nil || rp.Err().Error() != want.Error() {
		t.Fatalf("batch error %v, want %v", rp.Err(), want)
	}
	if msg := want.Error(); !strings.Contains(msg, fmt.Sprintf("byte offset %d, tick 1", tr.Size())) {
		t.Fatalf("error %q does not name the cut's offset %d and tick 1", msg, tr.Size())
	}
}

// TestOverlongAccessVarint pins how an access delta that overruns a
// 64-bit varint fails: encoding/binary's text, and a byte offset that
// counts the varint as binary.ReadUvarint consumes it — never more than
// binary.MaxVarintLen64 bytes, whatever follows — from Reader.Next and
// NextAccessBatch alike.
func TestOverlongAccessVarint(t *testing.T) {
	const overflow = "trace: access delta: binary: varint overflows a 64-bit integer"
	cont := bytes.Repeat([]byte{0xff}, binary.MaxVarintLen64)
	for _, c := range []struct {
		name string
		tail []byte // the varint after the access opcode, to the end of the data
		want string // the error before its location
		used int    // varint bytes consumed
	}{
		{"ten continuation bytes then more", append(slices.Clone(cont), 0x01), overflow, 10},
		{"ten continuation bytes at the end", cont, overflow, 10},
		{"tenth byte past 64 bits", append(slices.Clone(cont[:9]), 0x02), overflow, 10},
		{"cut mid-varint", cont[:3], "trace: access delta: unexpected EOF", 3},
	} {
		t.Run(c.name, func(t *testing.T) {
			var b bytes.Buffer
			w := NewWriter(&b, Header{Name: "overlong", TotalPages: 64})
			w.Mmap(pagetable.Region{Start: 0, Pages: 64, Type: mem.Anon}, 0)
			w.StartEnd()
			w.Access(1) // leaves the bad access to the batch decoder
			if err := w.Flush(); err != nil {
				t.Fatal(err)
			}
			tr, err := Decode(append(append(b.Bytes(), byte(OpAccess)), c.tail...))
			if err != nil {
				t.Fatal(err)
			}
			want := fmt.Sprintf("%s (byte offset %d, tick 0)", c.want, tr.Size()-len(c.tail)+c.used)

			r := tr.Events()
			var got error
			for got == nil {
				_, got = r.Next()
			}
			if got.Error() != want {
				t.Errorf("Next: %v\n want %s", got, want)
			}

			rp := tr.Replayer(ReplayOptions{})
			ctx := &stubCtx{}
			rp.Start(ctx)
			rp.Tick(ctx, 0)
			if n := rp.NextAccessBatch(ctx, 0, make([]pagetable.VPN, 4)); n != 1 {
				t.Errorf("batch returned %d accesses, want 1", n)
			}
			if rp.Err() == nil || rp.Err().Error() != want {
				t.Errorf("NextAccessBatch: %v\n want %s", rp.Err(), want)
			}
		})
	}
}

// BenchmarkReplayBatch measures the replay draw path per access: the
// in-memory decode, live-region translation and housekeeping of a
// looping AdvChurn trace, with no machine behind it.
func BenchmarkReplayBatch(b *testing.B) {
	const apt = 2000
	tr := AdversarialChurn(GenConfig{Pages: 16384, Minutes: 2, AccessesPerTick: apt, Seed: 1})
	rp := tr.Replayer(ReplayOptions{Loop: true})
	ctx := &stubCtx{}
	buf := make([]pagetable.VPN, 256)
	rp.Start(ctx)
	b.ReportAllocs()
	b.ResetTimer()
	replayTicks(rp, ctx, buf, b.N)
	b.StopTimer()
	if err := rp.Err(); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/apt, "ns/access")
}
