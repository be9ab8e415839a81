package topo

import (
	"encoding/json"
	"fmt"
	"strings"

	"repro/internal/device"
	"repro/internal/gpu"
	"repro/internal/proc"
	"repro/internal/sim"
)

// Spec is a declarative topology description, loadable from JSON. It gives
// the reproduction the paper's "maintained by system software or constructed
// by the runtime library at program initialization" path (§III-B): the same
// application binary runs on any topology a spec describes.
type Spec struct {
	// Name labels the topology in tool output.
	Name string `json:"name"`
	// Nodes lists the tree nodes. Exactly one must have no parent.
	Nodes []NodeSpec `json:"nodes"`
}

// NodeSpec describes one tree node.
type NodeSpec struct {
	// Name is a unique identifier referenced by Parent fields.
	Name string `json:"name"`
	// Parent names the parent node; empty for the root.
	Parent string `json:"parent,omitempty"`
	// Device selects a device profile: "hdd", "ssd", "nvm", "dram", "hbm",
	// or "gpumem".
	Device string `json:"device"`
	// CapacityMiB is the device capacity.
	CapacityMiB int64 `json:"capacity_mib"`
	// ReadMBps/WriteMBps override bandwidth for "ssd" (the §V-D sweep).
	ReadMBps  float64 `json:"read_mbps,omitempty"`
	WriteMBps float64 `json:"write_mbps,omitempty"`
	// Procs lists processors to attach: "apu-gpu", "discrete-gpu", "cpu",
	// "pim" (in-memory compute sized to this node's bandwidth), or
	// "fpga" (a reconfigurable leaf accelerator).
	Procs []string `json:"procs,omitempty"`
}

// ParseSpec decodes a JSON topology spec.
func ParseSpec(data []byte) (*Spec, error) {
	var s Spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("topo: parsing spec: %w", err)
	}
	if len(s.Nodes) == 0 {
		return nil, fmt.Errorf("topo: spec %q has no nodes", s.Name)
	}
	return &s, nil
}

// profileFor maps a spec device name to a device profile.
func profileFor(n NodeSpec) (device.Profile, error) {
	capacity := n.CapacityMiB * device.MiB
	if capacity <= 0 {
		return device.Profile{}, fmt.Errorf("topo: node %q: capacity %d MiB invalid", n.Name, n.CapacityMiB)
	}
	switch n.Device {
	case "hdd":
		return device.HDDProfile(capacity), nil
	case "ssd":
		r, w := n.ReadMBps, n.WriteMBps
		if r == 0 {
			r = 1400
		}
		if w == 0 {
			w = 600
		}
		return device.SSDProfile(capacity, r, w), nil
	case "nvm":
		return device.NVMProfile(capacity), nil
	case "dram":
		return device.DRAMProfile(capacity), nil
	case "hbm":
		return device.HBMProfile(capacity), nil
	case "gpumem":
		return device.GPUMemProfile(capacity), nil
	default:
		return device.Profile{}, fmt.Errorf("topo: node %q: unknown device %q", n.Name, n.Device)
	}
}

// BuildSpec instantiates a spec on the engine.
func BuildSpec(e *sim.Engine, s *Spec) (*Tree, error) {
	byName := make(map[string]NodeSpec, len(s.Nodes))
	children := make(map[string][]string)
	rootName := ""
	for _, n := range s.Nodes {
		if n.Name == "" {
			return nil, fmt.Errorf("topo: spec %q: unnamed node", s.Name)
		}
		if _, dup := byName[n.Name]; dup {
			return nil, fmt.Errorf("topo: spec %q: duplicate node %q", s.Name, n.Name)
		}
		byName[n.Name] = n
		if n.Parent == "" {
			if rootName != "" {
				return nil, fmt.Errorf("topo: spec %q: multiple roots (%q, %q)", s.Name, rootName, n.Name)
			}
			rootName = n.Name
		} else {
			children[n.Parent] = append(children[n.Parent], n.Name)
		}
	}
	if rootName == "" {
		return nil, fmt.Errorf("topo: spec %q: no root node", s.Name)
	}
	for _, n := range s.Nodes {
		if _, ok := byName[n.Parent]; n.Parent != "" && !ok {
			return nil, fmt.Errorf("topo: spec %q: parent %q does not exist", s.Name, n.Parent)
		}
	}
	// The tree is built from the root down, so a node on a parent cycle
	// (its own parent, or nodes that parent each other) would be left out.
	reached := map[string]bool{rootName: true}
	for frontier := []string{rootName}; len(frontier) > 0; frontier = frontier[1:] {
		for _, c := range children[frontier[0]] {
			reached[c] = true
			frontier = append(frontier, c)
		}
	}
	if len(reached) < len(s.Nodes) {
		var lost []string
		for _, n := range s.Nodes {
			if !reached[n.Name] {
				lost = append(lost, fmt.Sprintf("%q", n.Name))
			}
		}
		return nil, fmt.Errorf("topo: spec %q: no path from root %q to %s (their parents form a cycle)",
			s.Name, rootName, strings.Join(lost, ", "))
	}

	b := NewBuilder(e)
	var addNode func(name string, parent NodeRef, isRoot bool) error
	addNode = func(name string, parent NodeRef, isRoot bool) error {
		ns := byName[name]
		prof, err := profileFor(ns)
		if err != nil {
			return err
		}
		var ref NodeRef
		if isRoot {
			ref = b.Root(prof)
		} else {
			ref = b.Child(parent, prof)
		}
		for _, pname := range ns.Procs {
			switch pname {
			case "apu-gpu":
				b.Attach(ref, gpu.APUGPU(e))
			case "discrete-gpu":
				b.Attach(ref, gpu.DiscreteGPU(e))
			case "cpu":
				b.Attach(ref, gpu.APUCPU(e))
			case "pim":
				// In-memory compute: units see the host node's bandwidth.
				b.Attach(ref, proc.NewPIM(e, name+"-pim", 8, 4e9, prof.ReadBW))
			case "fpga":
				b.Attach(ref, proc.NewFPGA(name+"-fpga", 250e6, 8, prof.ReadBW,
					sim.Milliseconds(40)))
			default:
				return fmt.Errorf("topo: node %q: unknown processor %q", name, pname)
			}
		}
		for _, c := range children[name] {
			if err := addNode(c, ref, false); err != nil {
				return err
			}
		}
		return nil
	}
	if err := addNode(rootName, NodeRef{}, true); err != nil {
		return nil, err
	}
	return b.Build()
}
