package serve

import (
	"fmt"
	"os"
	"testing"

	"repro/internal/sim"
	"repro/internal/trace"
)

// tenantDepthProbe compares the shared runtime's queue-depth gauge at the
// staging node with the sum of the tenants' northup_serve_queue_depth
// gauges, at every 16th charge of the run.
type tenantDepthProbe struct {
	t        *testing.T
	e        *Engine
	spans    int
	checked  int
	deepest  float64
	mismatch int
}

func (d *tenantDepthProbe) Span(_ *sim.Proc, _ trace.Lane, _ trace.Category, _ string, _, end sim.Time, _ int64) {
	d.spans++
	if d.spans%16 != 0 {
		return
	}
	d.checked++
	want := 0.0
	for _, ts := range d.e.tenants {
		want += d.e.TenantRegistry(ts.spec.Name).Flatten()[fmt.Sprintf(`northup_serve_queue_depth{tenant="%s"}`, ts.spec.Name)]
	}
	got := d.e.runReg.Flatten()[fmt.Sprintf(`northup_queue_depth{node="%d"}`, d.e.dram.ID)]
	d.deepest = max(d.deepest, want)
	if got != want && d.mismatch < 5 {
		d.mismatch++
		d.t.Errorf("at %v: northup_queue_depth = %v, tenants' queue depths sum to %v", end, got, want)
	}
}
func (*tenantDepthProbe) Instant(trace.Lane, string, sim.Time, int64) {}
func (*tenantDepthProbe) Counter(trace.Lane, string, sim.Time, int64) {}

// TestQueueDepthGaugeSumsTenantQueues runs the saturation scenario, whose
// tenants build a backlog, and reads the runtime's northup_queue_depth at
// the staging node during the run: it must equal the sum of the tenants'
// own queue-depth gauges.
func TestQueueDepthGaugeSumsTenantQueues(t *testing.T) {
	data, err := os.ReadFile("../../specs/scenarios/saturation.json")
	if err != nil {
		t.Fatal(err)
	}
	scn, err := ParseScenario(data)
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(scn, RunOptions{Phantom: true})
	if err != nil {
		t.Fatal(err)
	}
	probe := &tenantDepthProbe{t: t, e: e}
	e.Runtime().Subscribe(probe)
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if probe.checked < 100 || probe.deepest < 2 {
		t.Fatalf("checked %d times, deepest backlog %v; the run must queue jobs", probe.checked, probe.deepest)
	}
}
