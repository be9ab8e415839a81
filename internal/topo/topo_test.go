package topo

import (
	"strings"
	"testing"

	"repro/internal/device"
	"repro/internal/gpu"
	"repro/internal/proc"
	"repro/internal/sched"
	"repro/internal/sim"
)

// buildFig2 builds an asymmetric tree shaped like the paper's Figure 2:
// a root with two subtrees of different depths.
func buildFig2(t *testing.T) *Tree {
	t.Helper()
	e := sim.NewEngine()
	b := NewBuilder(e)
	root := b.Root(device.HDDProfile(4 * device.GiB)) // node 0, L0
	left := b.Child(root, device.DRAMProfile(device.GiB))
	right := b.Child(root, device.NVMProfile(2*device.GiB))
	ll := b.Child(left, device.GPUMemProfile(device.GiB))
	b.Attach(ll, gpu.DiscreteGPU(e))
	rl := b.Child(right, device.DRAMProfile(device.GiB))
	rr := b.Child(right, device.HBMProfile(device.GiB))
	b.Attach(rl, gpu.APUGPU(e), gpu.APUCPU(e))
	b.Attach(rr, gpu.APUGPU(e))
	tree, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return tree
}

func TestBFSNumberingAndLevels(t *testing.T) {
	tree := buildFig2(t)
	if tree.NumNodes() != 6 {
		t.Fatalf("nodes = %d", tree.NumNodes())
	}
	wantLevels := []int{0, 1, 1, 2, 2, 2}
	for i, want := range wantLevels {
		if got := tree.Node(i).Level; got != want {
			t.Errorf("node %d level = %d, want %d", i, got, want)
		}
	}
	if tree.MaxLevel() != 2 || tree.Levels() != 3 {
		t.Fatalf("max level %d", tree.MaxLevel())
	}
	// BFS: the right inner node (ID 2) has children 4 and 5, like the
	// paper's node-3-has-children-6-and-7 numbering discipline.
	right := tree.Node(2)
	if len(right.Children) != 2 || right.Child(0).ID != 4 || right.Child(1).ID != 5 {
		t.Fatalf("right children = %v", right.Children)
	}
}

func TestQueries(t *testing.T) {
	tree := buildFig2(t)
	root := tree.Root()
	if root.Kind() != device.KindHDD {
		t.Fatalf("root kind %v", root.Kind())
	}
	if !root.Kind().IsFileStore() || root.Store == nil {
		t.Fatal("HDD root did not get a file store")
	}
	leaf := tree.Node(4)
	if !leaf.IsLeaf() {
		t.Fatal("node 4 should be a leaf")
	}
	if leaf.Parent.ID != 2 {
		t.Fatalf("node 4 parent = %d", leaf.Parent.ID)
	}
	if p := leaf.Processor(proc.GPU); p == nil || p.ProcKind() != proc.GPU {
		t.Fatal("GPU lookup failed")
	}
	if p := leaf.Processor(proc.CPU); p == nil {
		t.Fatal("CPU lookup failed")
	}
	if p := leaf.Processor(proc.FPGA); p != nil {
		t.Fatal("phantom FPGA found")
	}
	leaves := tree.Leaves()
	if len(leaves) != 3 {
		t.Fatalf("%d leaves", len(leaves))
	}
}

func TestValidationCatchesBareLeaf(t *testing.T) {
	e := sim.NewEngine()
	b := NewBuilder(e)
	root := b.Root(device.SSDProfile(device.GiB, 1400, 600))
	b.Child(root, device.DRAMProfile(device.GiB)) // leaf without processor
	if _, err := b.Build(); err == nil {
		t.Fatal("leaf without processor passed validation")
	}
}

func TestBuilderRejectsNoRoot(t *testing.T) {
	e := sim.NewEngine()
	b := NewBuilder(e)
	if _, err := b.Build(); err == nil {
		t.Fatal("empty builder built")
	}
}

func TestDoubleRootPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	e := sim.NewEngine()
	b := NewBuilder(e)
	b.Root(device.SSDProfile(device.GiB, 1400, 600))
	b.Root(device.SSDProfile(device.GiB, 1400, 600))
}

func TestStringAndDOT(t *testing.T) {
	tree := buildFig2(t)
	s := tree.String()
	if !strings.Contains(s, "node0(hdd,L0)") || !strings.Contains(s, "hbm") {
		t.Fatalf("String output missing pieces:\n%s", s)
	}
	dot := tree.DOT()
	for _, frag := range []string{"digraph northup", "n0 -> n1", "n2 -> n4", "shape=box", "w9100"} {
		if !strings.Contains(dot, frag) {
			t.Fatalf("DOT missing %q:\n%s", frag, dot)
		}
	}
}

func TestStandardTopologies(t *testing.T) {
	e := sim.NewEngine()
	apu := APU(e, APUConfig{Storage: SSD, StorageMiB: 512, DRAMMiB: 64})
	if apu.Levels() != 2 {
		t.Fatalf("APU levels = %d", apu.Levels())
	}
	if apu.Root().Kind() != device.KindSSD {
		t.Fatalf("APU root kind %v", apu.Root().Kind())
	}
	leaf := apu.Node(1)
	if leaf.Processor(proc.GPU) == nil {
		t.Fatal("APU leaf lacks GPU")
	}
	if leaf.Processor(proc.CPU) != nil {
		t.Fatal("APU leaf has CPU without WithCPU")
	}

	apuCPU := APU(e, APUConfig{Storage: HDD, StorageMiB: 512, DRAMMiB: 64, WithCPU: true})
	if apuCPU.Root().Kind() != device.KindHDD {
		t.Fatal("HDD choice ignored")
	}
	if apuCPU.Node(1).Processor(proc.CPU) == nil {
		t.Fatal("WithCPU leaf lacks CPU")
	}

	d := Discrete(e2(), DiscreteConfig{Storage: SSD, StorageMiB: 512, DRAMMiB: 128, GPUMemMiB: 64})
	if d.Levels() != 3 {
		t.Fatalf("discrete levels = %d", d.Levels())
	}
	if d.Node(1).Processor(proc.CPU) == nil {
		t.Fatal("discrete DRAM node lacks the CPU (the paper's non-leaf exception)")
	}
	if d.Node(2).Processor(proc.GPU) == nil {
		t.Fatal("discrete leaf lacks GPU")
	}

	im := InMemory(e2(), 1024)
	if im.Levels() != 1 || im.Root().Processor(proc.GPU) == nil {
		t.Fatal("in-memory topology malformed")
	}
}

func e2() *sim.Engine { return sim.NewEngine() }

func TestSpecRoundTrip(t *testing.T) {
	specJSON := `{
	  "name": "apu-ssd",
	  "nodes": [
	    {"name": "ssd", "device": "ssd", "capacity_mib": 512, "read_mbps": 2000, "write_mbps": 1200},
	    {"name": "dram", "parent": "ssd", "device": "dram", "capacity_mib": 64, "procs": ["apu-gpu", "cpu"]}
	  ]
	}`
	s, err := ParseSpec([]byte(specJSON))
	if err != nil {
		t.Fatal(err)
	}
	tree, err := BuildSpec(sim.NewEngine(), s)
	if err != nil {
		t.Fatal(err)
	}
	if tree.Levels() != 2 {
		t.Fatalf("levels = %d", tree.Levels())
	}
	if bw := tree.Root().Mem.Profile().ReadBW; bw != 2000*device.MBps {
		t.Fatalf("root read BW = %g", bw)
	}
	if tree.Node(1).Processor(proc.CPU) == nil {
		t.Fatal("spec CPU not attached")
	}
}

func TestSpecErrors(t *testing.T) {
	cases := []struct {
		name string
		json string
		want string // a part of the error, if it must name something
	}{
		{"empty", `{"name":"x","nodes":[]}`, ""},
		{"two roots", `{"nodes":[{"name":"a","device":"dram","capacity_mib":1},{"name":"b","device":"dram","capacity_mib":1}]}`, ""},
		{"bad device", `{"nodes":[{"name":"a","device":"floppy","capacity_mib":1}]}`, ""},
		{"bad proc", `{"nodes":[{"name":"a","device":"dram","capacity_mib":1,"procs":["tpu"]}]}`, ""},
		{"dangling parent", `{"nodes":[{"name":"a","device":"dram","capacity_mib":1,"procs":["cpu"]},{"name":"b","parent":"zz","device":"dram","capacity_mib":1}]}`, ""},
		{"duplicate", `{"nodes":[{"name":"a","device":"dram","capacity_mib":1},{"name":"a","parent":"a","device":"dram","capacity_mib":1}]}`, ""},
		{"zero capacity", `{"nodes":[{"name":"a","device":"dram","capacity_mib":0,"procs":["cpu"]}]}`, ""},
		{"self parent", selfParentSpec, `no path from root "a" to "b" (`},
		{"parent cycle", parentCycleSpec, `no path from root "a" to "b", "c" (`},
	}
	for _, c := range cases {
		s, err := ParseSpec([]byte(c.json))
		if err != nil {
			continue // parse-level rejection is fine too
		}
		if _, err := BuildSpec(sim.NewEngine(), s); err == nil {
			t.Errorf("%s: invalid spec accepted", c.name)
		} else if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not name %s", c.name, err, c.want)
		}
	}
}

// Two specs whose nodes the root cannot reach: "b" parented to itself,
// and "b" and "c" parenting each other.
const (
	selfParentSpec = `{"nodes":[{"name":"a","device":"ssd","capacity_mib":64},
		{"name":"d","parent":"a","device":"dram","capacity_mib":8,"procs":["cpu"]},
		{"name":"b","parent":"b","device":"dram","capacity_mib":8}]}`
	parentCycleSpec = `{"nodes":[{"name":"a","device":"ssd","capacity_mib":64},
		{"name":"d","parent":"a","device":"dram","capacity_mib":8,"procs":["cpu"]},
		{"name":"b","parent":"c","device":"dram","capacity_mib":8},
		{"name":"c","parent":"b","device":"dram","capacity_mib":8}]}`
)

func TestQueueReportAndSubtreeLoad(t *testing.T) {
	tree := buildFig2(t)
	q1 := sched.NewDeque[int]("chunks")
	q2 := sched.NewDeque[int]("tiles")
	for i := 0; i < 5; i++ {
		q1.PushTail(i)
	}
	for i := 0; i < 3; i++ {
		q2.PushTail(i)
	}
	tree.Node(2).Queues = []sched.Monitor{q1}
	tree.Node(4).Queues = []sched.Monitor{q2}
	if got := tree.SubtreeLoad(tree.Node(2)); got != 8 {
		t.Fatalf("subtree load = %d, want 8", got)
	}
	if got := tree.SubtreeLoad(tree.Root()); got != 8 {
		t.Fatalf("root load = %d, want 8", got)
	}
	if got := tree.SubtreeLoad(tree.Node(1)); got != 0 {
		t.Fatalf("left subtree load = %d, want 0", got)
	}
	rep := tree.QueueReport()
	for _, frag := range []string{"chunks=5", "tiles=3", "subtree-load=8"} {
		if !strings.Contains(rep, frag) {
			t.Fatalf("report missing %q:\n%s", frag, rep)
		}
	}
}

func TestSpecPIMAndFPGA(t *testing.T) {
	specJSON := `{
	  "nodes": [
	    {"name": "ssd", "device": "ssd", "capacity_mib": 128},
	    {"name": "nvm", "parent": "ssd", "device": "nvm", "capacity_mib": 64, "procs": ["pim"]},
	    {"name": "dram", "parent": "nvm", "device": "dram", "capacity_mib": 16, "procs": ["fpga", "cpu"]}
	  ]
	}`
	s, err := ParseSpec([]byte(specJSON))
	if err != nil {
		t.Fatal(err)
	}
	tree, err := BuildSpec(sim.NewEngine(), s)
	if err != nil {
		t.Fatal(err)
	}
	if tree.Node(1).Processor(proc.PIM) == nil {
		t.Fatal("PIM not attached from spec")
	}
	if tree.Node(2).Processor(proc.FPGA) == nil {
		t.Fatal("FPGA not attached from spec")
	}
}
