package taskgraph

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/trace"
)

// readyDepthProbe counts, from the graph's edges and the task bodies that
// have returned, the tasks that are ready but not yet placed, and compares
// the count with the placement node's queue-depth gauge at every placement.
type readyDepthProbe struct {
	t        *testing.T
	reg      *obs.Registry
	key      string
	preds    [][]int
	done     []bool
	placed   int
	checked  int
	deepest  int
	mismatch int
}

func (*readyDepthProbe) Span(*sim.Proc, trace.Lane, trace.Category, string, sim.Time, sim.Time, int64) {
}
func (*readyDepthProbe) Counter(trace.Lane, string, sim.Time, int64) {}

func (d *readyDepthProbe) Instant(lane trace.Lane, name string, at sim.Time, _ int64) {
	if lane.Track != trace.TrackQueue || name != "place" {
		return
	}
	d.placed++
	ready := 0
	for _, ps := range d.preds {
		ok := true
		for _, p := range ps {
			ok = ok && d.done[p]
		}
		if ok {
			ready++
		}
	}
	want := ready - d.placed
	d.checked++
	d.deepest = max(d.deepest, want)
	if got := d.reg.Flatten()[d.key]; int(got) != want && d.mismatch < 5 {
		d.mismatch++
		d.t.Errorf("at %v: %s = %v, ready but unplaced tasks %d", at, d.key, got, want)
	}
}

// TestQueueDepthGaugeCountsReadyTasks runs a graph of independent tasks
// feeding pairwise joins under both policies and reads the placement
// node's northup_queue_depth at every placement: it must equal the tasks
// whose predecessors have all returned, less those already placed.
func TestQueueDepthGaugeCountsReadyTasks(t *testing.T) {
	for _, affinity := range []bool{false, true} {
		e := sim.NewEngine()
		tree := topo.APU(e, topo.APUConfig{Storage: topo.SSD, StorageMiB: 64, DRAMMiB: 8, WithCPU: true})
		opts := core.DefaultOptions()
		opts.Phantom = true
		opts.Metrics = obs.NewRegistry()
		rt := core.NewRuntime(e, tree, opts)
		dram := tree.Root().Children[0]
		var buf *core.Buffer
		if _, err := rt.Run("setup", func(c *core.Ctx) error {
			var err error
			buf, err = c.Alloc(1 << 20)
			return err
		}); err != nil {
			t.Fatal(err)
		}

		const leaves = 16
		g := New()
		probe := &readyDepthProbe{t: t, reg: opts.Metrics,
			key: fmt.Sprintf(`northup_queue_depth{node="%d"}`, dram.ID)}
		add := func(reads, writes []Extent, preds []int, cost sim.Time) {
			id := len(probe.preds)
			probe.preds = append(probe.preds, preds)
			probe.done = append(probe.done, false)
			g.Add(&Task{Name: fmt.Sprintf("t%d", id), Reads: reads, Writes: writes, Cost: 1,
				Run: func(c *core.Ctx) error {
					c.Proc().Sleep(cost)
					probe.done[id] = true
					return nil
				}})
		}
		ext := func(i int) []Extent { return []Extent{{buf, int64(i) * 1024, 1024}} }
		for i := 0; i < leaves; i++ {
			add(nil, ext(i), nil, sim.Microseconds(float64(10+i%3)))
		}
		for i := 0; i < leaves; i += 2 {
			add([]Extent{ext(i)[0], ext(i + 1)[0]}, ext(leaves+i), []int{i, i + 1}, sim.Microseconds(5))
		}
		rt.Subscribe(probe)
		if _, err := rt.Run("run", func(c *core.Ctx) error {
			_, err := g.Run(c, Options{Workers: 3, Affinity: affinity, Node: dram})
			return err
		}); err != nil {
			t.Fatal(err)
		}
		if probe.checked != leaves+leaves/2 || probe.deepest < leaves-3 {
			t.Fatalf("affinity=%v: %d placements, deepest %d; want %d and at least %d",
				affinity, probe.checked, probe.deepest, leaves+leaves/2, leaves-3)
		}
		if got := opts.Metrics.Flatten()[probe.key]; got != 0 {
			t.Fatalf("affinity=%v: gauge reads %v after the run, want 0", affinity, got)
		}
	}
}
