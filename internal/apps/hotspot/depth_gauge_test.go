package hotspot

import (
	"fmt"
	"testing"

	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/trace"
)

// barrierDepthProbe compares the runtime's queue-depth gauge with each
// value of the steal barrier's "depth" counter as the run emits it.
type barrierDepthProbe struct {
	t        *testing.T
	reg      *obs.Registry
	seen     int
	deepest  int64
	mismatch int
}

func (*barrierDepthProbe) Span(*sim.Proc, trace.Lane, trace.Category, string, sim.Time, sim.Time, int64) {
}
func (*barrierDepthProbe) Instant(trace.Lane, string, sim.Time, int64) {}

func (d *barrierDepthProbe) Counter(lane trace.Lane, name string, at sim.Time, value int64) {
	if lane.Track != trace.TrackQueue || name != "depth" {
		return
	}
	d.seen++
	d.deepest = max(d.deepest, value)
	got := d.reg.Flatten()[fmt.Sprintf(`northup_queue_depth{node="%d"}`, lane.Node)]
	if int64(got) != value && d.mismatch < 5 {
		d.mismatch++
		d.t.Errorf("at %v: northup_queue_depth = %v, barrier depth counter %d", at, got, value)
	}
}

// TestQueueDepthGaugeMatchesStealBarriers reads northup_queue_depth, the
// gauge that sums the queues attached at the leaf, at every iteration
// barrier of the leaf balancer and requires the barrier's own count of
// queued rows: full after each refill, empty after each drain.
func TestQueueDepthGaugeMatchesStealBarriers(t *testing.T) {
	for _, mode := range []StealMode{CPUGPU, GPUOnly} {
		rt, reg := newMeteredStealRuntime()
		probe := &barrierDepthProbe{t: t, reg: reg}
		rt.Subscribe(probe)
		cfg := StealConfig{M: 128, ChunkDim: 64, Seed: 5, Iters: 3, GPUQueues: 4, Mode: mode}
		if _, err := RunSteal(rt, cfg); err != nil {
			t.Fatal(err)
		}
		// 4 chunks, 2 barriers per iteration.
		if probe.seen != 4*3*2 || probe.deepest != 64/BlockDim {
			t.Fatalf("%v: %d barrier counters, deepest %d; want 24 and %d",
				mode, probe.seen, probe.deepest, 64/BlockDim)
		}
	}
}
