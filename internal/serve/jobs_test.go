package serve

import (
	"testing"

	"repro/internal/core"
)

// TestPlanJob pins the admission plan of every workload at quotas that fit
// exactly, round down to the alignment, fall one byte short of the
// alignment's rows, leave the resident set no room, cannot hold the
// resident set (reason quota) and cap the strip at n. The figures were
// taken from the per-workload planner that the shapes replaced.
func TestPlanJob(t *testing.T) {
	const big = int64(1) << 40
	gemm := MixEntry{Workload: WorkloadGEMM, N: 256}           // resident 262144, 2048 B/row, align 64
	spmv := MixEntry{Workload: WorkloadSpMV, N: 2000}          // resident 16000, 64 B/row
	hs := MixEntry{Workload: WorkloadHotSpot, N: 32, Iters: 2} // 384 B/row, align 16
	srt := MixEntry{Workload: WorkloadSort, N: 5000}           // 4 B/row
	for _, tc := range []struct {
		name   string
		m      MixEntry
		quota  int64
		foot   int64
		work   int64
		strip  int
		reason string
	}{
		{"gemm exact", gemm, 262144 + 64*2048, 393216, 786432, 64, ""},
		{"gemm aligned down", gemm, 262144 + 100*2048, 393216, 786432, 64, ""},
		{"gemm one byte short", gemm, 262144 + 64*2048 - 1, 0, 0, 0, rejectMinStrip},
		{"gemm resident only", gemm, 262144, 0, 0, 0, rejectMinStrip},
		{"gemm resident too big", gemm, 262143, 0, 0, 0, rejectQuota},
		{"gemm capped at n", gemm, big, 786432, 786432, 256, ""},
		{"spmv exact", spmv, 16000 + 100*64, 22400, 144000, 100, ""},
		{"spmv one byte short", spmv, 16000 + 64 - 1, 0, 0, 0, rejectMinStrip},
		{"spmv resident too big", spmv, 15999, 0, 0, 0, rejectQuota},
		{"spmv capped at n", spmv, big, 144000, 144000, 2000, ""},
		{"hotspot exact", hs, 16 * 384, 6144, 20480, 16, ""},
		{"hotspot aligned down", hs, 40 * 384, 12288, 20480, 32, ""},
		{"hotspot one byte short", hs, 16*384 - 1, 0, 0, 0, rejectMinStrip},
		{"hotspot no quota", hs, 0, 0, 0, 0, rejectMinStrip},
		{"hotspot capped at n", hs, big, 12288, 20480, 32, ""},
		{"sort exact", srt, 4000, 4000, 40000, 1000, ""},
		{"sort one byte short", srt, 3, 0, 0, 0, rejectMinStrip},
		{"sort no quota", srt, 0, 0, 0, 0, rejectMinStrip},
		{"sort capped at n", srt, big, 20000, 40000, 5000, ""},
	} {
		p := planJob(shapeOf(tc.m), tc.quota)
		if p.Footprint != tc.foot || p.Strip != tc.strip || p.reject != tc.reason {
			t.Errorf("%s: footprint %d strip %d reason %q, want %d %d %q",
				tc.name, p.Footprint, p.Strip, p.reject, tc.foot, tc.strip, tc.reason)
		}
		if tc.reason == "" && p.WorkBytes != tc.work {
			t.Errorf("%s: work bytes %d, want %d", tc.name, p.WorkBytes, tc.work)
		}
	}
}

type jobKey struct {
	tenant string
	id     int
}

// observeWork wraps every plan's leaf so that each job that computes a
// strip records its plan's WFQ cost. Observation only: the schedule is
// unchanged.
func observeWork(e *Engine) map[jobKey]int64 {
	work := map[jobKey]int64{}
	for _, t := range e.tenants {
		for i := range t.plans {
			leaf := t.plans[i].leaf
			t.plans[i].leaf = func(lc *core.Ctx, jb *job, r0, rows int) error {
				work[jobKey{jb.tenant, jb.id}] = jb.plan.WorkBytes
				return leaf(lc, jb, r0, rows)
			}
		}
	}
	return work
}

// completedWork sums the observed WFQ cost of the jobs that finished
// without error.
func completedWork(recs []JobRecord, work map[jobKey]int64) int64 {
	var sum int64
	for _, r := range recs {
		if r.Err == "" {
			sum += work[jobKey{r.Tenant, r.ID}]
		}
	}
	return sum
}

// TestTotalWorkBytesCountsEachEntry: two HotSpot entries of one tenant
// share n and differ in iterations, so a job's workload and n do not tell
// its cost; the report must count each completed job at its own entry's.
func TestTotalWorkBytesCountsEachEntry(t *testing.T) {
	scn := &Scenario{
		Name: "work", Seed: 5,
		Tenants: []Tenant{{Name: "a", Rate: 100, QuotaMiB: 16, MaxJobs: 10, Mix: []MixEntry{
			{Workload: WorkloadHotSpot, N: 32, Iters: 2},
			{Workload: WorkloadHotSpot, N: 32, Iters: 50},
		}}},
	}
	e, err := New(scn, RunOptions{Phantom: true})
	if err != nil {
		t.Fatal(err)
	}
	work := observeWork(e)
	rep, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	// Seven jobs of 20,480 B and three of 413,696 B.
	if want := int64(1384448); rep.TotalBytes != want || completedWork(e.Records(), work) != want {
		t.Fatalf("total_work_bytes %d, observed %d, want %d",
			rep.TotalBytes, completedWork(e.Records(), work), want)
	}
}

// driverAllocsPerJob is the heap objects per completed job that a phantom
// run of allocScenario made with the four per-workload job bodies the
// shared driver replaced (Go 1.24). The driver must not allocate more.
const driverAllocsPerJob = 43.70

// allocScenario is the determinism scenario raised to 100 jobs, so that
// per-job work outweighs the engine's setup.
func allocScenario() *Scenario {
	scn := detScenario(7)
	scn.Tenants[0].MaxJobs, scn.Tenants[1].MaxJobs = 60, 40
	return scn
}

// TestJobAllocs guards a serve job's host cost: heap objects per completed
// job stay within 2% of driverAllocsPerJob.
func TestJobAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	scn := allocScenario()
	var jobs int64
	allocs := testing.AllocsPerRun(5, func() {
		e, err := New(scn, RunOptions{Phantom: true})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := e.Run()
		if err != nil {
			t.Fatal(err)
		}
		jobs = rep.TotalJobs
	})
	if perJob := allocs / float64(jobs); perJob > driverAllocsPerJob*1.02 {
		t.Fatalf("%.2f allocations per job (%d jobs), want at most %.2f", perJob, jobs, driverAllocsPerJob*1.02)
	}
}
