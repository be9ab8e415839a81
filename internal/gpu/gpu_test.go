package gpu

import (
	"errors"
	"sync/atomic"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func testModel() Model {
	return Model{
		Name: "test", CUs: 4, FLOPS: 1e9, MemBW: 1e9,
		GroupsPerCU: 2, LocalMemPerCU: 64 << 10,
		LaunchLatency: sim.Microseconds(10),
	}
}

func TestLaunchRunsEveryGroup(t *testing.T) {
	e := sim.NewEngine()
	g := New(e, testModel())
	var ran int64
	k := Kernel{
		Name: "count", FlopsPerGroup: 1e6, BytesPerGroup: 0,
		Run: func(i int) { atomic.AddInt64(&ran, 1) },
	}
	e.Spawn("host", func(p *sim.Proc) {
		if _, err := g.Launch(p, k, 37); err != nil {
			t.Error(err)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if ran != 37 {
		t.Fatalf("ran %d groups, want 37", ran)
	}
	busy, kernels := g.Stats()
	if busy <= 0 || kernels != 1 {
		t.Fatalf("stats = %v, %d", busy, kernels)
	}
}

func TestComputeVsMemoryBound(t *testing.T) {
	e := sim.NewEngine()
	g := New(e, testModel())
	// Same flops; kernel B adds heavy memory traffic -> must be slower.
	a := g.LaunchTime(Kernel{FlopsPerGroup: 1e6, BytesPerGroup: 1e3}, 64)
	b := g.LaunchTime(Kernel{FlopsPerGroup: 1e6, BytesPerGroup: 1e7}, 64)
	if b <= a {
		t.Fatalf("memory-bound kernel %v not slower than compute-bound %v", b, a)
	}
}

func TestWaveQuantization(t *testing.T) {
	// 8 slots (4 CUs x 2): 9 groups need two waves; the second wave is
	// mostly idle, so 9 groups cost clearly more than 8.
	e := sim.NewEngine()
	g := New(e, testModel())
	k := Kernel{FlopsPerGroup: 1e7}
	t8 := g.LaunchTime(k, 8)
	t9 := g.LaunchTime(k, 9)
	if t9 <= t8 {
		t.Fatalf("9 groups (%v) not slower than 8 (%v)", t9, t8)
	}
	// And far more than linear scaling would suggest.
	linear := t8 + (t8-g.model.LaunchLatency)/8
	if t9 <= linear {
		t.Fatalf("no quantization penalty: t9=%v, linear=%v", t9, linear)
	}
}

func TestLaunchTimeMonotonicInGroups(t *testing.T) {
	e := sim.NewEngine()
	g := New(e, testModel())
	k := Kernel{FlopsPerGroup: 5e5, BytesPerGroup: 1e4}
	f := func(a, b uint8) bool {
		x, y := int(a%64), int(b%64)
		if x > y {
			x, y = y, x
		}
		return g.LaunchTime(k, x) <= g.LaunchTime(k, y)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLocalMemoryLimit(t *testing.T) {
	e := sim.NewEngine()
	g := New(e, testModel())
	k := Kernel{Name: "fat", LocalBytes: 1 << 20}
	var launchErr error
	e.Spawn("host", func(p *sim.Proc) {
		_, launchErr = g.Launch(p, k, 1)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	var lm *ErrLocalMem
	if !errors.As(launchErr, &lm) {
		t.Fatalf("err = %v, want ErrLocalMem", launchErr)
	}
}

func TestKernelsSerialize(t *testing.T) {
	e := sim.NewEngine()
	g := New(e, testModel())
	k := Kernel{FlopsPerGroup: 1e8}
	single := g.LaunchTime(k, 8)
	var ends []sim.Time
	for i := 0; i < 2; i++ {
		e.Spawn("host", func(p *sim.Proc) {
			g.Launch(p, k, 8)
			ends = append(ends, p.Now())
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if ends[0] != single || ends[1] != 2*single {
		t.Fatalf("ends = %v, want %v and %v", ends, single, 2*single)
	}
}

func TestUtilizationRisesWithResidency(t *testing.T) {
	// Fig. 11's premise: more resident groups -> more aggregate throughput,
	// with diminishing returns.
	e := sim.NewEngine()
	g := New(e, testModel())
	thru := func(resident int) float64 {
		t := g.GroupTaskTime(resident, 1e6, 0)
		return float64(resident) * 1e6 / t.Seconds()
	}
	t8, t16, t32 := thru(8), thru(16), thru(32)
	if !(t8 < t16 && t16 < t32) {
		t.Fatalf("throughput not increasing: %g %g %g", t8, t16, t32)
	}
	if t32 > g.model.FLOPS {
		t.Fatalf("throughput %g exceeds device peak %g", t32, g.model.FLOPS)
	}
	if (t32-t16)/t16 > (t16-t8)/t8 {
		t.Fatal("no diminishing returns in latency-hiding curve")
	}
}

func TestProfilesSane(t *testing.T) {
	e := sim.NewEngine()
	apu, w9100 := APUGPU(e), DiscreteGPU(e)
	if apu.Model().FLOPS >= w9100.Model().FLOPS {
		t.Fatal("APU not slower than discrete GPU")
	}
	cpu := APUCPU(e)
	// Calibration check: on the APU, the GPU should beat the CPU by ~3.5x
	// on bandwidth-bound stencil work (see APUCPU's comment; this ratio is
	// what makes Fig. 11's ~24% stealing gain reachable).
	gput := apu.LaunchTime(Kernel{FlopsPerGroup: 15 * 256, BytesPerGroup: 6 * 256 * 4}, 1024)
	// Spread the same 1024 tasks over 4 CPU cores.
	perCore := 256
	cput := cpu.TaskTime(15*256*float64(perCore), 6*256*4*float64(perCore))
	ratio := float64(cput) / float64(gput)
	if ratio < 2.5 || ratio > 6 {
		t.Fatalf("CPU/GPU stencil ratio = %.1f, want ~3.5", ratio)
	}
}

func TestNegativeGroupsRejected(t *testing.T) {
	e := sim.NewEngine()
	g := New(e, testModel())
	var err error
	e.Spawn("h", func(p *sim.Proc) { _, err = g.Launch(p, Kernel{}, -1) })
	if e.Run() != nil || err == nil {
		t.Fatal("negative group count accepted")
	}
}

// launchTimeByWaves is LaunchTime as a loop over waves, the oracle of its
// closed form.
func launchTimeByWaves(g *GPU, k Kernel, groups int) sim.Time {
	if groups <= 0 {
		return g.model.LaunchLatency
	}
	slots := g.model.slots()
	t := g.model.LaunchLatency
	remaining := groups
	for remaining > 0 {
		active := remaining
		if active > slots {
			active = slots
		}
		eta := g.model.utilization(active)
		compute := sim.Seconds(float64(active) * k.FlopsPerGroup / (g.model.FLOPS * eta))
		mem := sim.Seconds(float64(active) * k.BytesPerGroup / (g.model.MemBW * eta))
		if mem > compute {
			t += mem
		} else {
			t += compute
		}
		remaining -= active
	}
	return t
}

// TestLaunchTimeClosedFormMatchesWaves requires the closed form to equal
// the wave loop exactly on both GPU profiles over compute- and
// memory-bound kernels and group counts around and far past the wave
// boundaries.
func TestLaunchTimeClosedFormMatchesWaves(t *testing.T) {
	e := sim.NewEngine()
	kernels := []Kernel{
		{FlopsPerGroup: 15 * 256, BytesPerGroup: 6 * 256 * 4}, // a HotSpot tile
		{FlopsPerGroup: 2 * 64 * 64 * 64, BytesPerGroup: 3 * 64 * 64 * 4},
		{FlopsPerGroup: 1e7},
		{BytesPerGroup: 1e5},
		{FlopsPerGroup: 1.3, BytesPerGroup: 0.7},
		{},
	}
	for _, g := range []*GPU{APUGPU(e), DiscreteGPU(e), New(e, testModel())} {
		slots := g.model.slots()
		groups := []int{-1, 0, 1, 2, 7}
		for _, w := range []int{1, 2, 3, 17, 1000} {
			groups = append(groups, w*slots-1, w*slots, w*slots+1, w*slots+slots/2)
		}
		groups = append(groups, 262144, 1<<20+3)
		for _, k := range kernels {
			for _, n := range groups {
				if got, want := g.LaunchTime(k, n), launchTimeByWaves(g, k, n); got != want {
					t.Errorf("%s, kernel %+v, %d groups: closed form %d, waves %d",
						g.model.Name, k, n, got, want)
				}
			}
		}
	}
}
