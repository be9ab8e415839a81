// Package topo implements Northup's topological tree: the asymmetric,
// hierarchical abstraction of a heterogeneous machine (paper §III-B,
// Figure 2, Listing 1).
//
// Inner nodes (including the root) are memories or storages; leaves are the
// transition points from software- to hardware-managed memory, each with one
// or more attached processors. Levels are numbered the paper's way: the
// slowest storage (the root) is level 0, faster memories get larger numbers.
//
// The tree is pure structure plus queries — policies such as chunk sizing,
// pipelining and stealing live in the runtime (package core), mirroring the
// paper's decoupling of data management from computation.
package topo

import (
	"fmt"
	"strings"

	"repro/internal/device"
	"repro/internal/proc"
	"repro/internal/sched"
	"repro/internal/storage"
)

// Node is one vertex of the Northup tree: a memory/storage device, plus —
// for leaves — the processors computation launches on. It carries the same
// information as the paper's Listing 1 struct: identity, level, parent and
// children links, memory info, processor info, and work-queue links.
type Node struct {
	ID    int
	Level int

	Mem   *device.Device
	Store *storage.Store // non-nil when Mem is file-backed

	Parent   *Node
	Children []*Node

	Procs []proc.Processor

	// Queues are the node's work queues (Listing 1: work_queue[numQueues]),
	// registered by the runtime so subtree load can be inspected.
	Queues []sched.Monitor
}

// IsLeaf reports whether the node has no children.
func (n *Node) IsLeaf() bool { return len(n.Children) == 0 }

// AttachQueues registers work-queue monitors on the node for the lifetime
// of one scheduler and returns a detach function that removes exactly those
// monitors again. Schedulers must use this instead of assigning Queues
// directly: several jobs multiplexed over one shared tree (package serve)
// each attach their own queues, and a direct assignment would clobber a
// concurrent job's registration and leak stale monitors after the job ends.
func (n *Node) AttachQueues(qs ...sched.Monitor) (detach func()) {
	n.Queues = append(n.Queues, qs...)
	return func() {
		kept := n.Queues[:0]
		for _, q := range n.Queues {
			mine := false
			for _, a := range qs {
				if q == a {
					mine = true
					break
				}
			}
			if !mine {
				kept = append(kept, q)
			}
		}
		for i := len(kept); i < len(n.Queues); i++ {
			n.Queues[i] = nil
		}
		n.Queues = kept
	}
}

// Kind returns the node's device kind (the paper's fetch_node_type()).
func (n *Node) Kind() device.Kind { return n.Mem.Kind() }

// Child returns the i'th child, following the paper's
// get_children_list()[i] idiom.
func (n *Node) Child(i int) *Node { return n.Children[i] }

// Processor returns the first attached processor of the given kind, or nil.
func (n *Node) Processor(k proc.Kind) proc.Processor {
	for _, p := range n.Procs {
		if p.ProcKind() == k {
			return p
		}
	}
	return nil
}

// String formats the node compactly, e.g. "node3(dram,L1)".
func (n *Node) String() string {
	return fmt.Sprintf("node%d(%s,L%d)", n.ID, n.Mem.Kind(), n.Level)
}

// Tree is a validated Northup topology.
type Tree struct {
	root     *Node
	nodes    []*Node // indexed by ID (BFS order)
	maxLevel int
}

// Root returns the level-0 node (the slowest storage).
func (t *Tree) Root() *Node { return t.root }

// StagingChild returns the storage root's one staging child: the level a
// single-branch out-of-core schedule stages everything through. It refuses
// a root that is not storage, and a root with several children, whose other
// branches such a schedule would leave idle.
func (t *Tree) StagingChild() (*Node, error) {
	if t.root.Store == nil {
		return nil, fmt.Errorf("tree root %v is not storage", t.root)
	}
	if len(t.root.Children) != 1 {
		return nil, fmt.Errorf("tree root %v has %d staging children; this schedule stages through exactly one",
			t.root, len(t.root.Children))
	}
	return t.root.Children[0], nil
}

// MaxLevel returns the largest level number (the paper's
// get_max_treelevel(); leaves of the deepest branch live here).
func (t *Tree) MaxLevel() int { return t.maxLevel }

// Levels returns the number of levels, i.e. MaxLevel()+1.
func (t *Tree) Levels() int { return t.maxLevel + 1 }

// NumNodes returns the number of nodes.
func (t *Tree) NumNodes() int { return len(t.nodes) }

// Node returns the node with the given ID.
func (t *Tree) Node(id int) *Node {
	if id < 0 || id >= len(t.nodes) {
		panic(fmt.Sprintf("topo: no node %d", id))
	}
	return t.nodes[id]
}

// Nodes returns all nodes in BFS (ID) order.
func (t *Tree) Nodes() []*Node { return t.nodes }

// Leaves returns the leaf nodes in ID order.
func (t *Tree) Leaves() []*Node {
	var ls []*Node
	for _, n := range t.nodes {
		if n.IsLeaf() {
			ls = append(ls, n)
		}
	}
	return ls
}

// Validate checks the structural invariants: exactly one root at level 0,
// child levels are parent+1, IDs match positions, every leaf has at least
// one processor, and parent/child links are mutual.
func (t *Tree) Validate() error {
	if t.root == nil {
		return fmt.Errorf("topo: no root")
	}
	if t.root.Level != 0 || t.root.Parent != nil {
		return fmt.Errorf("topo: root must be level 0 with no parent")
	}
	for i, n := range t.nodes {
		if n.ID != i {
			return fmt.Errorf("topo: node at index %d has ID %d", i, n.ID)
		}
		if n.Mem == nil {
			return fmt.Errorf("topo: %v has no memory device", n)
		}
		if n != t.root {
			if n.Parent == nil {
				return fmt.Errorf("topo: %v has no parent", n)
			}
			if n.Level != n.Parent.Level+1 {
				return fmt.Errorf("topo: %v level %d, parent level %d",
					n, n.Level, n.Parent.Level)
			}
			found := false
			for _, c := range n.Parent.Children {
				if c == n {
					found = true
					break
				}
			}
			if !found {
				return fmt.Errorf("topo: %v missing from parent's children", n)
			}
		}
		if n.IsLeaf() && len(n.Procs) == 0 {
			return fmt.Errorf("topo: leaf %v has no processor", n)
		}
	}
	return nil
}

// String renders the tree as an indented outline, the runtime's "output the
// topology" facility (§III-E).
func (t *Tree) String() string {
	var sb strings.Builder
	var walk func(n *Node, depth int)
	walk = func(n *Node, depth int) {
		fmt.Fprintf(&sb, "%s%v cap=%s", strings.Repeat("  ", depth), n,
			fmtBytes(n.Mem.Capacity()))
		for _, p := range n.Procs {
			fmt.Fprintf(&sb, " +%s(%s)", p.ProcName(), p.ProcKind())
		}
		sb.WriteByte('\n')
		for _, c := range n.Children {
			walk(c, depth+1)
		}
	}
	walk(t.root, 0)
	return sb.String()
}

// SubtreeLoad sums the queued tasks of every work queue in the subtree
// rooted at n — §V-E's introspection: "examining the status of a subsystem
// can be easily accomplished by checking the queue that [is] associated
// with the root of a subtree."
func (t *Tree) SubtreeLoad(n *Node) int {
	total := 0
	for _, q := range n.Queues {
		total += q.Len()
	}
	for _, c := range n.Children {
		total += t.SubtreeLoad(c)
	}
	return total
}

// QueueReport renders the per-node work-queue state as an indented
// outline: the runtime's load-observation facility.
func (t *Tree) QueueReport() string {
	var sb strings.Builder
	var walk func(n *Node, depth int)
	walk = func(n *Node, depth int) {
		fmt.Fprintf(&sb, "%s%v subtree-load=%d", strings.Repeat("  ", depth),
			n, t.SubtreeLoad(n))
		for _, q := range n.Queues {
			fmt.Fprintf(&sb, " %s=%d", q.Name(), q.Len())
			// Deques also carry lifetime pop/steal counters; surface them
			// so the report shows how tasks left, not just what is queued.
			if st, ok := q.(interface{ Stats() (int64, int64) }); ok {
				pops, steals := st.Stats()
				if pops+steals > 0 {
					fmt.Fprintf(&sb, "(pops=%d,steals=%d)", pops, steals)
				}
			}
		}
		sb.WriteByte('\n')
		for _, c := range n.Children {
			walk(c, depth+1)
		}
	}
	walk(t.root, 0)
	return sb.String()
}

// DOT renders the tree in Graphviz dot format: circles for memory nodes and
// boxes for processors, matching the paper's Figure 2 styling.
func (t *Tree) DOT() string {
	var sb strings.Builder
	sb.WriteString("digraph northup {\n  rankdir=TB;\n")
	for _, n := range t.nodes {
		fmt.Fprintf(&sb, "  n%d [shape=circle,label=\"%d\\n%s L%d\"];\n",
			n.ID, n.ID, n.Mem.Kind(), n.Level)
		for j, p := range n.Procs {
			fmt.Fprintf(&sb, "  p%d_%d [shape=box,label=\"%s\"];\n", n.ID, j, p.ProcName())
			fmt.Fprintf(&sb, "  n%d -> p%d_%d [style=dashed];\n", n.ID, n.ID, j)
		}
	}
	for _, n := range t.nodes {
		for _, c := range n.Children {
			fmt.Fprintf(&sb, "  n%d -> n%d;\n", n.ID, c.ID)
		}
	}
	sb.WriteString("}\n")
	return sb.String()
}

func fmtBytes(n int64) string {
	switch {
	case n >= device.GiB && n%device.GiB == 0:
		return fmt.Sprintf("%dGiB", n/device.GiB)
	case n >= device.MiB && n%device.MiB == 0:
		return fmt.Sprintf("%dMiB", n/device.MiB)
	case n >= device.KiB && n%device.KiB == 0:
		return fmt.Sprintf("%dKiB", n/device.KiB)
	default:
		return fmt.Sprintf("%dB", n)
	}
}
