// Package alloc implements the page allocator of the simulated kernel:
// policy-ordered node fallback, watermark gating, kswapd wake-up, and the
// direct-reclaim slow path. Two TPP behaviours live here:
//
//   - Decoupled allocation gating (§5.2): with TPP, a node accepts new
//     allocations while free pages satisfy the *allocation* watermark even
//     though background reclaim (driven by the higher *demotion*
//     watermark) is still running — allocation no longer halts behind
//     reclamation.
//   - Page-type-aware placement (§5.4): optionally, file and tmpfs pages
//     prefer the CXL node so that cold caches never squeeze hot anons out
//     of local DRAM.
package alloc

import (
	"errors"

	"tppsim/internal/lru"
	"tppsim/internal/mem"
	"tppsim/internal/probe"
	"tppsim/internal/tier"
	"tppsim/internal/vmstat"
)

// ErrOOM is returned when no node can host the page even after direct
// reclaim. The AutoTiering baseline's 1:4 crash surfaces through this.
var ErrOOM = errors.New("alloc: out of memory on all nodes")

// Config selects the allocation policy.
type Config struct {
	// Decoupled gates allocation on the allocation watermark (§5.2)
	// instead of the classic low watermark, and wakes kswapd at the
	// demotion watermark.
	Decoupled bool
	// PageTypeAware prefers CXL nodes for file-like pages (§5.4).
	PageTypeAware bool
}

// Result reports where an allocation landed and what it cost.
type Result struct {
	PFN  mem.PFN
	Node mem.NodeID
	// StallNs is time the faulting thread spent in direct reclaim; zero
	// on the fast path.
	StallNs float64
}

// Allocator is the per-machine page allocator.
type Allocator struct {
	cfg   Config
	store *mem.Store
	topo  *tier.Topology
	vecs  []*lru.Vec
	stat  *vmstat.NodeStats

	// WakeKswapd is invoked (if non-nil) when an allocation observes the
	// preferred node under pressure. Wired to the reclaim daemon.
	WakeKswapd func(mem.NodeID)
	// DirectReclaim is the synchronous slow path: reclaim want pages from
	// the node, returning pages freed and the caller's stall time. Wired
	// to the reclaim package.
	DirectReclaim func(node mem.NodeID, want uint64) (freed uint64, costNs float64)

	// probes is the machine's probe plane (nil = no probing): allocation
	// stalls observe their duration and fire the allocstall tracepoint.
	probes *probe.Probes

	// framePages is the base pages per allocation unit: 1 normally,
	// mem.HugeFramePages in huge-page mode, where each PFN is a 2 MB
	// frame and node residency is charged all-or-nothing per frame.
	framePages uint64
}

// New returns an allocator over the machine.
func New(cfg Config, store *mem.Store, topo *tier.Topology, vecs []*lru.Vec, stat *vmstat.NodeStats) *Allocator {
	return &Allocator{cfg: cfg, store: store, topo: topo, vecs: vecs, stat: stat, framePages: 1}
}

// Config returns the active policy configuration.
func (a *Allocator) Config() Config { return a.cfg }

// SetProbes attaches the machine's probe plane (nil detaches).
func (a *Allocator) SetProbes(p *probe.Probes) { a.probes = p }

// SetFramePages sets the base pages charged per allocated PFN (a
// machine property, set once by the simulator before any allocation).
func (a *Allocator) SetFramePages(fp uint64) { a.framePages = fp }

// acquireFrame charges one allocation unit of residency on the node:
// a single page normally, a whole huge frame (all-or-nothing) in
// huge-page mode.
func (a *Allocator) acquireFrame(n *mem.Node, t mem.PageType) bool {
	if a.framePages == 1 {
		return n.Acquire(t)
	}
	return n.AcquireN(t, a.framePages)
}

// NodeOrder returns the node fallback order for a page of type t with the
// given preferred node, honouring the page-type-aware policy: file-like
// pages try the CXL nodes first. The slice is shared and read-only.
func (a *Allocator) NodeOrder(t mem.PageType, preferred mem.NodeID) []mem.NodeID {
	if a.cfg.PageTypeAware && t.IsFileLike() {
		return a.topo.FileFirstOrder(preferred)
	}
	return a.topo.FallbackOrder(preferred)
}

// allocGateOK reports whether node n may take a fast-path allocation.
func (a *Allocator) allocGateOK(n *mem.Node) bool {
	if a.cfg.Decoupled {
		return n.AllocOK()
	}
	return n.Free() > n.WM.Low
}

// pressure reports whether kswapd should be woken for node n.
func (a *Allocator) pressure(n *mem.Node) bool {
	if a.cfg.Decoupled {
		return n.BelowDemote()
	}
	return n.BelowLow()
}

// AllocPage allocates one page of type t preferring the given node,
// following the kernel's three-pass structure: watermark-gated fast path,
// min-watermark emergency path, then direct reclaim.
func (a *Allocator) AllocPage(t mem.PageType, preferred mem.NodeID) (Result, error) {
	order := a.NodeOrder(t, preferred)

	// Pass 1: fast path over the fallback order.
	for _, id := range order {
		n := a.topo.Node(id)
		if a.allocGateOK(n) && a.acquireFrame(n, t) {
			return a.finish(t, id, 0), nil
		}
	}
	// Someone is under pressure; kick background reclaim on the preferred
	// node before dipping into reserves.
	a.wake(preferred)

	// Pass 2: allow dipping to the min watermark.
	for _, id := range order {
		n := a.topo.Node(id)
		if n.Free() > n.WM.Min && a.acquireFrame(n, t) {
			a.wake(id)
			return a.finish(t, id, 0), nil
		}
	}

	// Pass 3: direct reclaim on the preferred node, then take anything.
	var stall float64
	if a.DirectReclaim != nil {
		a.stat.Inc(preferred, vmstat.PgallocStall)
		_, stall = a.DirectReclaim(preferred, a.framePages)
		if p := a.probes; p != nil {
			if p.Lat != nil {
				p.Lat.AllocStall.ObserveFloat(stall)
			}
			if p.OnAllocStall.Active() {
				p.OnAllocStall.Fire(probe.AllocStallEvent{Node: int(preferred), StallNs: stall})
			}
		}
	}
	for _, id := range order {
		if a.acquireFrame(a.topo.Node(id), t) {
			a.wake(id)
			return a.finish(t, id, stall), nil
		}
	}
	return Result{PFN: mem.NilPFN, Node: mem.NilNode, StallNs: stall}, ErrOOM
}

func (a *Allocator) wake(id mem.NodeID) {
	if a.WakeKswapd != nil && a.pressure(a.topo.Node(id)) {
		a.WakeKswapd(id)
	}
}

// finish creates the page object, links it on the node's inactive LRU
// (new pages start inactive, as in kernels >= 5.9), and counts the event.
func (a *Allocator) finish(t mem.PageType, id mem.NodeID, stall float64) Result {
	pfn := a.store.Alloc(t, id)
	a.vecs[id].Add(pfn, false)
	// pgalloc_* are page-denominated: a huge frame counts all its base
	// pages, matching how the kernel accounts THP allocations.
	if a.topo.Node(id).Kind == mem.KindCXL {
		a.stat.Add(id, vmstat.PgallocCXL, a.framePages)
	} else {
		a.stat.Add(id, vmstat.PgallocLocal, a.framePages)
	}
	// Also wake kswapd when the fast path left the node under pressure,
	// so background reclaim keeps the headroom ahead of the next burst.
	a.wake(id)
	return Result{PFN: pfn, Node: id, StallNs: stall}
}

// FreePage releases a page entirely: off its LRU, node residency returned,
// page object recycled. The caller is responsible for page-table cleanup.
func (a *Allocator) FreePage(pfn mem.PFN) {
	pg := a.store.Page(pfn)
	id := pg.Node
	if pg.Flags.Has(mem.PGOnLRU) {
		a.vecs[id].Remove(pfn)
	}
	if a.framePages == 1 {
		a.topo.Node(id).Release(pg.Type)
	} else {
		a.topo.Node(id).ReleaseN(pg.Type, a.framePages)
	}
	a.store.Free(pfn)
	a.stat.Add(id, vmstat.PgfreeCt, a.framePages)
}
