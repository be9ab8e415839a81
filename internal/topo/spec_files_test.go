package topo

import (
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/device"
	"repro/internal/sim"
)

// TestShippedSpecsBuild loads every topology spec shipped in specs/ and
// verifies it builds into a valid tree.
func TestShippedSpecsBuild(t *testing.T) {
	pattern := filepath.Join("..", "..", "specs", "*.json")
	files, err := filepath.Glob(pattern)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) < 4 {
		t.Fatalf("expected shipped specs at %s, found %d", pattern, len(files))
	}
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		spec, err := ParseSpec(data)
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		tree, err := BuildSpec(sim.NewEngine(), spec)
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		if err := tree.Validate(); err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		if tree.DOT() == "" || tree.String() == "" {
			t.Fatalf("%s: renderings empty", f)
		}
	}
}

// TestAsymmetricSpecShape pins the asymmetric example's structure: two
// subtrees of different depths, Figure 2 style.
func TestAsymmetricSpecShape(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "specs", "asymmetric.json"))
	if err != nil {
		t.Fatal(err)
	}
	spec, err := ParseSpec(data)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := BuildSpec(sim.NewEngine(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if tree.MaxLevel() != 2 {
		t.Fatalf("max level = %d", tree.MaxLevel())
	}
	if len(tree.Root().Children) != 2 {
		t.Fatalf("root has %d children", len(tree.Root().Children))
	}
	leaves := tree.Leaves()
	if len(leaves) != 2 {
		t.Fatalf("%d leaves", len(leaves))
	}
	if leaves[0].Level == leaves[1].Level {
		t.Fatal("asymmetric example has symmetric leaf depths")
	}
}

// FuzzBuildSpec feeds arbitrary bytes, seeded with the shipped specs, to
// ParseSpec and BuildSpec: whenever both succeed, every spec node must be
// a node of the tree, and every SSD must have a positive, finite read and
// write bandwidth.
func FuzzBuildSpec(f *testing.F) {
	files, err := filepath.Glob(filepath.Join("..", "..", "specs", "*.json"))
	if err != nil {
		f.Fatal(err)
	}
	for _, name := range files {
		data, err := os.ReadFile(name)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(selfParentSpec))
	f.Add([]byte(parentCycleSpec))
	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := ParseSpec(data)
		if err != nil {
			return
		}
		tree, err := BuildSpec(sim.NewEngine(), spec)
		if err != nil {
			return
		}
		if tree.NumNodes() != len(spec.Nodes) {
			t.Fatalf("spec of %d nodes built a tree of %d", len(spec.Nodes), tree.NumNodes())
		}
		for id := 0; id < tree.NumNodes(); id++ {
			p := tree.Node(id).Mem.Profile()
			if p.Kind == device.KindSSD && !(p.ReadBW > 0 && p.WriteBW > 0 &&
				!math.IsInf(p.ReadBW, 1) && !math.IsInf(p.WriteBW, 1)) {
				t.Fatalf("ssd node %d built with read %g, write %g B/s", id, p.ReadBW, p.WriteBW)
			}
		}
	})
}
