package hotspot

import (
	"repro/internal/core"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/trace"
)

// This file implements §III-E's profile-guided task-processor mapping for
// the stencil: "By profiling the execution of earlier scheduled chunks, the
// system can provide useful information to subsequent scheduling and
// task-processor mapping." Each chunk runs wholly on one processor; the
// first chunks sample each candidate, after which every chunk goes to the
// predicted-fastest one.

// ProfiledResult extends Result with the mapping decisions taken.
type ProfiledResult struct {
	Result
	// ChunksOnGPU and ChunksOnCPU count the placement decisions.
	ChunksOnGPU, ChunksOnCPU int
	// Profile is the scheduler state learned during the run. Export it
	// (sched.ProfileScheduler.ExportJSON) to warm-start a later run via
	// RunProfiledWarm, skipping the exploration phase.
	Profile *sched.ProfileScheduler
}

// RunProfiled executes the out-of-core stencil with profile-guided chunk
// placement between the leaf CPU and GPU, starting from a cold profile. The
// tree must have both attached (the APU WithCPU topology).
func RunProfiled(rt *core.Runtime, cfg Config) (*ProfiledResult, error) {
	return RunProfiledWarm(rt, cfg, nil)
}

// RunProfiledWarm is RunProfiled seeded with a prior run's learned profile
// (nil means cold start). A warm profile that already holds enough samples
// skips the exploration phase entirely, so the first chunks land on the
// predicted-fastest processor instead of sampling both.
func RunProfiledWarm(rt *core.Runtime, cfg Config, warm *sched.ProfileScheduler) (*ProfiledResult, error) {
	profiler := warm
	if profiler == nil {
		profiler = sched.NewProfileScheduler()
	}
	res := &ProfiledResult{Profile: profiler}
	// Profile-guided mapping and tracing share one observation stream: each
	// chunk runs as a task span named after its processor, and the profiler
	// subscribes to learn from span completions instead of ad-hoc timing
	// calls, whether or not the run keeps a trace.
	defer rt.Subscribe(&profileFeed{profiler})()
	step := func(lc *core.Ctx, blk *Block, d, iters int) error {
		g, cpu := lc.GPUModel(), lc.CPUModel()
		size := float64(d) * float64(d) * float64(iters)
		pick, err := profiler.Pick([]string{g.ProcName(), cpu.ProcName()}, size)
		if err != nil {
			return err
		}
		return lc.Task(pick, int64(size), func(lc *core.Ctx) error {
			if pick == g.ProcName() {
				res.ChunksOnGPU++
				return launchSteps(lc, blk, d, iters)
			}
			res.ChunksOnCPU++
			tiles := (d + BlockDim - 1) / BlockDim
			for it := 0; it < iters; it++ {
				fn := func() {
					if blk == nil {
						return
					}
					for ty := 0; ty < tiles; ty++ {
						for tx := 0; tx < tiles; tx++ {
							blk.StepTile(ty, tx)
						}
					}
				}
				flops := float64(TileFlops) * float64(tiles*tiles)
				bytes := float64(TileBytes) * float64(tiles*tiles)
				if _, err := lc.RunCPUParallel(flops, bytes, fn); err != nil {
					return err
				}
				if blk != nil {
					blk.Swap()
				}
			}
			return nil
		})
	}
	r, err := runChunked(rt, cfg, step, true)
	if err != nil {
		return nil, err
	}
	res.Result = *r
	return res, nil
}

// profileFeed is the profiler's subscription to the runtime's observation
// stream: it records each task span's processor, size and duration.
type profileFeed struct{ profiler *sched.ProfileScheduler }

func (f *profileFeed) Span(_ *sim.Proc, lane trace.Lane, _ trace.Category, name string, start, end sim.Time, value int64) {
	if lane.Track == trace.TrackTask {
		f.profiler.Record(name, float64(value), end-start)
	}
}

func (f *profileFeed) Instant(trace.Lane, string, sim.Time, int64) {}
func (f *profileFeed) Counter(trace.Lane, string, sim.Time, int64) {}
