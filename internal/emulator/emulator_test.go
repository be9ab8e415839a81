package emulator

import (
	"testing"
	"testing/quick"

	"repro/internal/device"
	"repro/internal/sim"
)

func recordedRun(t *testing.T) (*Trace, sim.Time) {
	t.Helper()
	e := sim.NewEngine()
	dev := device.New(e, device.SSDProfile(device.GiB, 1400, 600))
	tr := &Trace{}
	detach := tr.Attach(dev)
	defer detach()
	e.Spawn("io", func(p *sim.Proc) {
		dev.Access(p, device.Read, 0, 70*device.MiB)
		dev.Access(p, device.Write, 70*device.MiB, 30*device.MiB)
		p.Sleep(50 * sim.Millisecond) // "compute"
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	return tr, e.Now()
}

func TestTraceAccumulates(t *testing.T) {
	tr, total := recordedRun(t)
	if tr.Len() != 2 {
		t.Fatalf("records = %d", tr.Len())
	}
	r, w := tr.Bytes()
	if r != 70*device.MiB || w != 30*device.MiB {
		t.Fatalf("bytes = %d/%d", r, w)
	}
	rt, wt := tr.IOTime()
	if rt <= 0 || wt <= 0 || rt+wt >= total {
		t.Fatalf("io time %v/%v vs total %v", rt, wt, total)
	}
}

func TestIdentityProjection(t *testing.T) {
	// Projecting onto the measured device reproduces the measured time
	// (modulo the fixed per-request latency the pure-bandwidth model
	// drops).
	tr, total := recordedRun(t)
	p := tr.Project(Target{ReadMBps: 1400, WriteMBps: 600,
		Latency: sim.Microseconds(60)}, total, 1)
	if d := p.Total - total; d > sim.Millisecond || d < -sim.Millisecond {
		t.Fatalf("identity projection drifted by %v", d)
	}
}

func TestFasterStorageImproves(t *testing.T) {
	tr, total := recordedRun(t)
	var projections []Projection
	for _, tg := range PaperSweep() {
		projections = append(projections, tr.Project(tg, total, 1))
	}
	for i := 1; i < len(projections); i++ {
		if projections[i].IOTime >= projections[i-1].IOTime {
			t.Fatalf("I/O time not decreasing: %v then %v",
				projections[i-1].IOTime, projections[i].IOTime)
		}
		if projections[i].Total >= projections[i-1].Total {
			t.Fatalf("total not decreasing across sweep")
		}
	}
	// §V-D headline: (3500/2100) versus (1400/600) improves I/O by ~60%.
	first, last := projections[0], projections[len(projections)-1]
	gain := 1 - float64(last.IOTime)/float64(first.IOTime)
	if gain < 0.5 || gain > 0.75 {
		t.Fatalf("I/O improvement %.0f%% outside the paper's ~65%% band", 100*gain)
	}
	// Overall gain is smaller: compute is untouched.
	overall := 1 - float64(last.Total)/float64(first.Total)
	if overall >= gain {
		t.Fatal("overall gain not damped by constant components")
	}
}

func TestCriticalFractionDamping(t *testing.T) {
	tr, total := recordedRun(t)
	fast := Target{ReadMBps: 3500, WriteMBps: 2100}
	full := tr.Project(fast, total, 1)
	half := tr.Project(fast, total, 0.5)
	none := tr.Project(fast, total, 0)
	if none.Total != total {
		t.Fatalf("zero critical fraction changed total: %v vs %v", none.Total, total)
	}
	if !(full.Total < half.Total && half.Total < none.Total) {
		t.Fatalf("damping not monotone: %v %v %v", full.Total, half.Total, none.Total)
	}
	// Fraction is clamped.
	if p := tr.Project(fast, total, 7); p.Total != full.Total {
		t.Fatal("criticalFraction not clamped to 1")
	}
}

func TestProjectionMonotoneInBandwidth(t *testing.T) {
	tr, total := recordedRun(t)
	f := func(a, b uint16) bool {
		lo, hi := float64(a%3000)+100, float64(b%3000)+100
		if lo > hi {
			lo, hi = hi, lo
		}
		pLo := tr.Project(Target{ReadMBps: lo, WriteMBps: lo}, total, 1)
		pHi := tr.Project(Target{ReadMBps: hi, WriteMBps: hi}, total, 1)
		return pHi.IOTime <= pLo.IOTime
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTargetString(t *testing.T) {
	if s := (Target{ReadMBps: 2100, WriteMBps: 900}).String(); s != "2100/900" {
		t.Fatalf("String = %q", s)
	}
	if s := (Target{Name: "nvme-gen4"}).String(); s != "nvme-gen4" {
		t.Fatalf("named String = %q", s)
	}
}
