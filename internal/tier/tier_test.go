package tier

import (
	"slices"
	"testing"

	"tppsim/internal/mem"
)

// mustCXL builds the paper's 2-node box from absolute page counts, or
// the single local node when cxl is 0.
func mustCXL(t *testing.T, local, cxl uint64) *Topology {
	t.Helper()
	s := Spec{Name: PresetNameCXL, Nodes: []NodeSpec{{Kind: mem.KindLocal, Pages: local}}}
	if cxl > 0 {
		s.Nodes = append(s.Nodes, NodeSpec{Kind: mem.KindCXL, Pages: cxl})
	}
	topo, err := s.Build(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

func TestCXLSpecAbsolutePages(t *testing.T) {
	topo := mustCXL(t, 1000, 500)
	if topo.NumNodes() != 2 {
		t.Fatalf("NumNodes = %d", topo.NumNodes())
	}
	if topo.Node(0).Kind != mem.KindLocal || topo.Node(1).Kind != mem.KindCXL {
		t.Fatal("node kinds wrong")
	}
	if !topo.Traits(0).HasCPU || topo.Traits(1).HasCPU {
		t.Fatal("CPU traits wrong")
	}
	if topo.Traits(1).LoadLatency != CXLLatencyDefaultNs {
		t.Fatalf("default CXL latency = %v", topo.Traits(1).LoadLatency)
	}
	if topo.TotalCapacity() != 1500 {
		t.Fatalf("TotalCapacity = %d", topo.TotalCapacity())
	}
}

func TestBaselineSingleNode(t *testing.T) {
	topo := mustCXL(t, 1000, 0)
	if topo.NumNodes() != 1 {
		t.Fatalf("baseline NumNodes = %d", topo.NumNodes())
	}
	if topo.DemotionTarget(0) != mem.NilNode {
		t.Fatal("baseline has a demotion target")
	}
	if len(topo.CXLNodes()) != 0 || len(topo.LocalNodes()) != 1 {
		t.Fatal("node kind lists wrong")
	}
}

func TestLatencyOverride(t *testing.T) {
	s := PresetCXL(1, 1)
	s.Nodes[1].LoadLatencyNs = 300
	topo, err := s.Build(20, 0)
	if err != nil {
		t.Fatal(err)
	}
	if topo.Traits(1).LoadLatency != 300 {
		t.Fatal("LoadLatencyNs ignored")
	}
	if topo.Traits(0).LoadLatency != LocalDRAMLatencyNs {
		t.Fatalf("local latency = %v, want the default", topo.Traits(0).LoadLatency)
	}
}

func TestDemotionAndPromotionTargets(t *testing.T) {
	topo := mustCXL(t, 100, 50)
	if got := topo.DemotionTarget(0); got != 1 {
		t.Fatalf("DemotionTarget = %d", got)
	}
	if got := topo.PromotionTarget(); got != 0 {
		t.Fatalf("PromotionTarget = %d", got)
	}
}

func TestPromotionTargetPicksLowestPressure(t *testing.T) {
	// Hand-build a 3-node machine: two local, one CXL.
	n0 := mem.NewNode(0, mem.KindLocal, 100, 0.02)
	n1 := mem.NewNode(1, mem.KindLocal, 100, 0.02)
	n2 := mem.NewNode(2, mem.KindCXL, 100, 0.02)
	topo, err := New(
		[]*mem.Node{n0, n1, n2},
		[]Traits{
			{LoadLatency: 100, BandwidthMBps: 38400, HasCPU: true},
			{LoadLatency: 180, BandwidthMBps: 32000, HasCPU: true},
			{LoadLatency: 220, BandwidthMBps: 64000, HasCPU: false},
		},
		[][]int{{10, 21, 20}, {21, 10, 25}, {20, 25, 10}},
	)
	if err != nil {
		t.Fatal(err)
	}
	// Fill node0 more than node1.
	for i := 0; i < 90; i++ {
		n0.Acquire(mem.Anon)
	}
	for i := 0; i < 10; i++ {
		n1.Acquire(mem.Anon)
	}
	if got := topo.PromotionTarget(); got != 1 {
		t.Fatalf("PromotionTarget = %d, want 1 (less pressure)", got)
	}
	// Demotion from node1 picks nearest CXL node (node2 is the only one).
	if got := topo.DemotionTarget(1); got != 2 {
		t.Fatalf("DemotionTarget(1) = %d", got)
	}
}

func TestFallbackOrder(t *testing.T) {
	topo := mustCXL(t, 10, 10)
	order := topo.FallbackOrder(0)
	if len(order) != 2 || order[0] != 0 || order[1] != 1 {
		t.Fatalf("FallbackOrder(0) = %v", order)
	}
	order = topo.FallbackOrder(1)
	if order[0] != 1 || order[1] != 0 {
		t.Fatalf("FallbackOrder(1) = %v", order)
	}
}

// TestFallbackOrderSetOffline pins the precomputed zonelists to the
// online set: hot-remove drops a node from both orders, and bringing
// it back restores them.
func TestFallbackOrderSetOffline(t *testing.T) {
	topo := mustCXL(t, 10, 10)
	check := func(what string, got []mem.NodeID, want ...mem.NodeID) {
		t.Helper()
		if !slices.Equal(got, want) {
			t.Fatalf("%s = %v, want %v", what, got, want)
		}
	}
	check("FileFirstOrder(0)", topo.FileFirstOrder(0), 1, 0)
	topo.SetOffline(1, true)
	check("offline FallbackOrder(0)", topo.FallbackOrder(0), 0)
	check("offline FileFirstOrder(0)", topo.FileFirstOrder(0), 0)
	topo.SetOffline(1, false)
	check("online FallbackOrder(0)", topo.FallbackOrder(0), 0, 1)
	check("online FallbackOrder(1)", topo.FallbackOrder(1), 1, 0)
	check("online FileFirstOrder(0)", topo.FileFirstOrder(0), 1, 0)
}

func TestNewValidation(t *testing.T) {
	n0 := mem.NewNode(0, mem.KindLocal, 10, 0.02)
	tr := []Traits{{LoadLatency: 100, HasCPU: true}}
	if _, err := New([]*mem.Node{n0}, tr, [][]int{{10, 20}}); err == nil {
		t.Fatal("bad distance row accepted")
	}
	if _, err := New([]*mem.Node{n0}, nil, [][]int{{10}}); err == nil {
		t.Fatal("mismatched traits accepted")
	}
	// Self-distance must be row minimum.
	n1 := mem.NewNode(1, mem.KindCXL, 10, 0.02)
	tr2 := []Traits{{LoadLatency: 100, HasCPU: true}, {LoadLatency: 220, HasCPU: false}}
	if _, err := New([]*mem.Node{n0, n1}, tr2, [][]int{{10, 5}, {20, 10}}); err == nil {
		t.Fatal("distance below self-distance accepted")
	}
	// Kind/CPU mismatch.
	bad := []Traits{{LoadLatency: 100, HasCPU: false}, {LoadLatency: 220, HasCPU: false}}
	if _, err := New([]*mem.Node{n0, n1}, bad, [][]int{{10, 20}, {20, 10}}); err == nil {
		t.Fatal("kind/CPU mismatch accepted")
	}
}

// shareSplitCase is one PresetCXL(l, c).Build sizing with its expected
// capacities: local = total·L/(L+C) and cxl = total − local, with total
// the working set grown by the slack.
type shareSplitCase struct {
	ws         uint64
	l, c       uint64
	slack      float64
	local, cxl uint64 // cxl 0: a single node
}

func checkShareSplit(t *testing.T, cases []shareSplitCase) {
	t.Helper()
	for _, c := range cases {
		topo, err := PresetCXL(c.l, c.c).Build(c.ws, c.slack)
		if err != nil {
			t.Fatal(err)
		}
		want := []uint64{c.local}
		if c.cxl > 0 {
			want = append(want, c.cxl)
		}
		var got []uint64
		for _, n := range topo.Nodes() {
			got = append(got, n.Capacity)
		}
		if !slices.Equal(got, want) {
			t.Errorf("%d:%d over %d (slack %g) = %v, want %v", c.l, c.c, c.ws, c.slack, got, want)
		}
	}
}

// TestRatioPages pins the 2-node share split of small working sets to
// fixed capacities, and a {1,0} split to a single node.
func TestRatioPages(t *testing.T) {
	checkShareSplit(t, []shareSplitCase{
		{3000, 2, 1, 0, 2000, 1000},
		{5000, 1, 4, 0, 1000, 4000},
		{1000, 1, 1, 0.1, 550, 550},
		{3000, 1, 0, 0.08, 3240, 0},
	})
}

// TestSpecShareSplitMatchesRatioPages pins the share split at the
// default slack. The default machine's sizing is also pinned by the
// seed-determinism golden test.
func TestSpecShareSplitMatchesRatioPages(t *testing.T) {
	checkShareSplit(t, []shareSplitCase{
		{16384, 2, 1, 0.08, 11796, 5898},
		{16384, 1, 4, 0.08, 3538, 14156},
		{16384, 3, 2, 0.08, 10616, 7078},
	})
}

func TestZeroLocalRejected(t *testing.T) {
	if _, err := PresetCXL(0, 1).Build(1000, 0); err == nil {
		t.Fatal("zero local share accepted")
	}
}

func TestSpecValidationErrors(t *testing.T) {
	cases := []struct {
		name string
		spec Spec
		ws   uint64
	}{
		{"no nodes", Spec{Name: "empty"}, 0},
		{"no CPU node", Spec{Name: "cpuless", Nodes: []NodeSpec{{Kind: mem.KindCXL, Pages: 10}}}, 0},
		{"CXL node first", Spec{Name: "inverted", Nodes: []NodeSpec{
			{Kind: mem.KindCXL, Pages: 10}, {Kind: mem.KindLocal, Pages: 10}}}, 0},
		{"pages and share both set", Spec{Name: "both", Nodes: []NodeSpec{
			{Kind: mem.KindLocal, Pages: 10, Share: 1}}}, 100},
		{"pages and share both zero", Spec{Name: "neither", Nodes: []NodeSpec{
			{Kind: mem.KindLocal}}}, 100},
		{"shares without working set", Spec{Name: "nows", Nodes: []NodeSpec{
			{Kind: mem.KindLocal, Share: 1}}}, 0},
		{"distance rows mismatched", Spec{Name: "baddist",
			Nodes:    []NodeSpec{{Kind: mem.KindLocal, Pages: 10}},
			Distance: [][]int{{10, 20}, {20, 10}}}, 0},
		{"distance below self-distance", Spec{Name: "badmin",
			Nodes: []NodeSpec{
				{Kind: mem.KindLocal, Pages: 10}, {Kind: mem.KindCXL, Pages: 10}},
			Distance: [][]int{{10, 5}, {20, 10}}}, 0},
		{"share rounds to zero pages", Spec{Name: "tiny", Nodes: []NodeSpec{
			{Kind: mem.KindLocal, Share: 1}, {Kind: mem.KindCXL, Share: 100000}}}, 10},
	}
	for _, c := range cases {
		if _, err := c.spec.Build(c.ws, 0); err == nil {
			t.Errorf("%s: Build accepted invalid spec", c.name)
		}
	}
}

func TestExpanderCascade(t *testing.T) {
	topo, err := PresetExpander(2, 1, 1).Build(8*1024, 0.08)
	if err != nil {
		t.Fatal(err)
	}
	if topo.NumTiers() != 3 {
		t.Fatalf("NumTiers = %d, want 3", topo.NumTiers())
	}
	for id, want := range []int{0, 1, 2} {
		if got := topo.TierOf(mem.NodeID(id)); got != want {
			t.Errorf("TierOf(%d) = %d, want %d", id, got, want)
		}
	}
	// Demotion cascades: local → [near, far]; near → [far]; far → [].
	if got := topo.DemotionTargets(0); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Errorf("DemotionTargets(0) = %v, want [1 2]", got)
	}
	if got := topo.DemotionTargets(1); len(got) != 1 || got[0] != 2 {
		t.Errorf("DemotionTargets(1) = %v, want [2]", got)
	}
	if got := topo.DemotionTargets(2); len(got) != 0 {
		t.Errorf("DemotionTargets(2) = %v, want empty", got)
	}
	// Promotion climbs one hop: far → near, near → local, local → nil.
	if got := topo.PromotionTargetFrom(2); got != 1 {
		t.Errorf("PromotionTargetFrom(2) = %d, want 1", got)
	}
	if got := topo.PromotionTargetFrom(1); got != 0 {
		t.Errorf("PromotionTargetFrom(1) = %d, want 0", got)
	}
	if got := topo.PromotionTargetFrom(0); got != mem.NilNode {
		t.Errorf("PromotionTargetFrom(0) = %d, want nil", got)
	}
	if topo.Traits(2).LoadLatency != FarCXLLatencyNs {
		t.Errorf("far latency = %v", topo.Traits(2).LoadLatency)
	}
}

func TestDualSocketCascadeOrdering(t *testing.T) {
	topo, err := PresetDualSocket().Build(8*1024, 0.08)
	if err != nil {
		t.Fatal(err)
	}
	if topo.NumTiers() != 2 {
		t.Fatalf("NumTiers = %d, want 2", topo.NumTiers())
	}
	// Each socket demotes to its own expander first, the remote one second.
	if got := topo.DemotionTargets(0); len(got) != 2 || got[0] != 2 || got[1] != 3 {
		t.Errorf("DemotionTargets(0) = %v, want [2 3]", got)
	}
	if got := topo.DemotionTargets(1); len(got) != 2 || got[0] != 3 || got[1] != 2 {
		t.Errorf("DemotionTargets(1) = %v, want [3 2]", got)
	}
	// Promotion from either expander picks the least-pressured socket.
	for i := 0; i < 30; i++ {
		topo.Node(0).Acquire(mem.Anon)
	}
	if got := topo.PromotionTargetFrom(2); got != 1 {
		t.Errorf("PromotionTargetFrom(2) = %d, want 1 (less pressure)", got)
	}
}

func TestPromotionTargetToward(t *testing.T) {
	topo, err := PresetDualSocket().Build(8*1024, 0.08)
	if err != nil {
		t.Fatal(err)
	}
	// Pressure socket 1 so the least-pressured fallback would be socket 0.
	for i := 0; i < 30; i++ {
		topo.Node(1).Acquire(mem.Anon)
	}
	if got := topo.PromotionTargetFrom(3); got != 0 {
		t.Fatalf("fixture: PromotionTargetFrom(3) = %d, want 0 (least pressure)", got)
	}
	// Home-socket affinity overrides least-pressure: a page whose
	// threads run on socket 1 promotes there.
	if got := topo.PromotionTargetToward(1, 3); got != 1 {
		t.Errorf("PromotionTargetToward(1, 3) = %d, want home socket 1", got)
	}
	// A full home falls back to the least-pressured node of the tier.
	for topo.Node(1).Free() > 0 {
		topo.Node(1).Acquire(mem.Anon)
	}
	if got := topo.PromotionTargetToward(1, 3); got != 0 {
		t.Errorf("PromotionTargetToward(1, 3) with socket 1 full = %d, want fallback 0", got)
	}
	// CPU-tier pages have nowhere to go, as before.
	if got := topo.PromotionTargetToward(0, 0); got != mem.NilNode {
		t.Errorf("PromotionTargetToward(0, 0) = %d, want nil", got)
	}

	// Single-socket machines: identical to PromotionTargetFrom, full or
	// not — the home node is the only node of the CPU tier.
	single, err := PresetCXL(2, 1).Build(8*1024, 0.08)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := single.PromotionTargetToward(0, 1), single.PromotionTargetFrom(1); got != want {
		t.Errorf("single-socket PromotionTargetToward(0,1) = %d, want %d", got, want)
	}
	for single.Node(0).Free() > 0 {
		single.Node(0).Acquire(mem.Anon)
	}
	if got, want := single.PromotionTargetToward(0, 1), single.PromotionTargetFrom(1); got != want {
		t.Errorf("single-socket (full) PromotionTargetToward(0,1) = %d, want %d", got, want)
	}

	// Multi-hop climbs: a far-tier page's home CPU node is two tiers up,
	// so the one-hop rule is unchanged.
	exp, err := PresetExpander(2, 1, 1).Build(8*1024, 0.08)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := exp.PromotionTargetToward(0, 2), exp.PromotionTargetFrom(2); got != want {
		t.Errorf("expander PromotionTargetToward(0,2) = %d, want %d", got, want)
	}
}

func TestSpecRoundTrip(t *testing.T) {
	topo, err := PresetExpander(2, 1, 1).Build(8*1024, 0.08)
	if err != nil {
		t.Fatal(err)
	}
	spec := topo.Spec()
	if spec.Name != PresetNameExpander {
		t.Errorf("round-trip name = %q", spec.Name)
	}
	rebuilt, err := spec.Build(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rebuilt.NumNodes() != topo.NumNodes() {
		t.Fatalf("round-trip nodes = %d", rebuilt.NumNodes())
	}
	for i := 0; i < topo.NumNodes(); i++ {
		id := mem.NodeID(i)
		if rebuilt.Node(id).Capacity != topo.Node(id).Capacity ||
			rebuilt.Node(id).Kind != topo.Node(id).Kind ||
			rebuilt.Node(id).WM != topo.Node(id).WM ||
			rebuilt.Traits(id) != topo.Traits(id) ||
			rebuilt.TierOf(id) != topo.TierOf(id) {
			t.Errorf("node %d diverged after round-trip", i)
		}
	}
}

// TestAccessLatencyAsymmetricMatrix pins the access-direction fix: on a
// single-CPU machine every access comes from the node's nearest (only)
// CPU, so AccessLatency must equal the trait latency even when the
// distance matrix is asymmetric — the penalty is measured against the
// CPU->node direction, not the node->CPU one tiering uses.
func TestAccessLatencyAsymmetricMatrix(t *testing.T) {
	nodes := []*mem.Node{
		mem.NewNode(0, mem.KindLocal, 100, 0.02),
		mem.NewNode(1, mem.KindCXL, 100, 0.02),
	}
	traits := []Traits{
		{LoadLatency: LocalDRAMLatencyNs, BandwidthMBps: DDRChannelBandwidthMBps, HasCPU: true},
		{LoadLatency: CXLLatencyDefaultNs, BandwidthMBps: CXLx16BandwidthMBps, HasCPU: false},
	}
	topo, err := New(nodes, traits, [][]int{{10, 25}, {20, 10}})
	if err != nil {
		t.Fatal(err)
	}
	if got := topo.AccessLatency(0, 0); got != LocalDRAMLatencyNs {
		t.Errorf("AccessLatency(0,0) = %v, want %v", got, LocalDRAMLatencyNs)
	}
	if got := topo.AccessLatency(0, 1); got != CXLLatencyDefaultNs {
		t.Errorf("AccessLatency(0,1) = %v, want %v (lone CPU must pay no penalty)", got, CXLLatencyDefaultNs)
	}
}
