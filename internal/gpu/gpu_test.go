package gpu

import (
	"errors"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/sim"
)

func testModel() Model {
	return Model{
		Name: "test", CUs: 4, FLOPS: 1e9, MemBW: 1e9,
		GroupsPerCU: 2, LocalMemPerCU: 64 << 10,
		LaunchLatency: sim.Microseconds(10),
	}
}

// atWidth runs f with GOMAXPROCS set to width, the launch width, and
// restores the setting afterwards.
func atWidth(width int, f func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(width))
	f()
}

// TestLaunchRunsEveryGroup launches kernels of many sizes at launch
// widths (GOMAXPROCS) 1, 2 and 4: every group must run exactly once, and
// at every width the launch must take LaunchTime and count one kernel.
func TestLaunchRunsEveryGroup(t *testing.T) {
	for _, width := range []int{1, 2, 4} {
		for _, groups := range []int{0, 1, 2, 3, 7, 37, 64, 1000} {
			runs := make([]atomic.Int32, groups)
			k := Kernel{Name: "count", FlopsPerGroup: 1e6,
				Run: func(g int) { runs[g].Add(1) }}
			atWidth(width, func() {
				e := sim.NewEngine()
				g := New(e, testModel())
				var took sim.Time
				e.Spawn("host", func(p *sim.Proc) {
					var err error
					if took, err = g.Launch(p, k, groups); err != nil {
						t.Error(err)
					}
				})
				if err := e.Run(); err != nil {
					t.Fatal(err)
				}
				busy, kernels := g.Stats()
				if want := g.LaunchTime(k, groups); took != want || busy != want || kernels != 1 {
					t.Errorf("width %d, %d groups: took %v, stats %v, %d; want %v, 1 kernel",
						width, groups, took, busy, kernels, want)
				}
			})
			for i := range runs {
				if n := runs[i].Load(); n != 1 {
					t.Errorf("width %d, %d groups: group %d ran %d times", width, groups, i, n)
				}
			}
		}
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

// TestLaunchRunsRangesAtOnce launches two groups at width 2 whose first
// group waits for the second: only a launch that runs its two ranges at
// once completes it.
func TestLaunchRunsRangesAtOnce(t *testing.T) {
	second := make(chan struct{})
	k := Kernel{Name: "pair", Run: func(g int) {
		if g == 1 {
			close(second)
			return
		}
		select {
		case <-second:
		case <-time.After(10 * time.Second):
			panic("group 1 did not run beside group 0")
		}
	}}
	atWidth(2, func() {
		e := sim.NewEngine()
		g := New(e, testModel())
		e.Spawn("host", func(p *sim.Proc) { g.Launch(p, k, 2) })
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestLaunchPanicWaitsForEveryGroup panics in group 5 of a launch at
// several widths. The groups after it in its range must not run, as in a
// loop in group order; every other range must still run each of its groups
// once before the launch returns, and the engine must report the panic
// under the launching process's name.
func TestLaunchPanicWaitsForEveryGroup(t *testing.T) {
	const groups, bad = 64, 5
	for _, width := range []int{1, 2, 4} {
		first := groups / width // the panicking range is [0, first)
		var runs [groups]atomic.Int32
		var returned atomic.Bool
		var late atomic.Int32
		failing := make(chan struct{})
		k := Kernel{Name: "boom", Run: func(g int) {
			if g == bad {
				close(failing)
				panic("group 5 failed")
			}
			if g >= first {
				// The other ranges run only once group 5 fails, and
				// slowly, so they are still running when its range ends.
				<-failing
				time.Sleep(50 * time.Microsecond)
			}
			if returned.Load() {
				late.Add(1)
			}
			runs[g].Add(1)
		}}
		var err error
		atWidth(width, func() {
			e := sim.NewEngine()
			g := New(e, testModel())
			e.Spawn("launcher", func(p *sim.Proc) {
				defer returned.Store(true)
				g.Launch(p, k, groups)
			})
			err = e.Run()
		})
		if err == nil || !strings.Contains(err.Error(), `process "launcher" panicked: group 5 failed`) {
			t.Fatalf("width %d: engine error %v, want the panic under the process's name", width, err)
		}
		if n := late.Load(); n > 0 {
			t.Errorf("width %d: %d groups ran after the launch returned", width, n)
		}
		for i := range runs {
			want := int32(1)
			if i >= bad && i < first {
				want = 0
			}
			if n := runs[i].Load(); n != want {
				t.Errorf("width %d: group %d ran %d times, want %d", width, i, n, want)
			}
		}
	}
}
