package serve

import (
	"reflect"
	"testing"
)

// alphaTenant is the well-behaved tenant shared by both integration runs.
func alphaTenant() Tenant {
	return Tenant{
		Name:     "alpha",
		Rate:     50,
		QuotaMiB: 16,
		MaxJobs:  8,
		Mix: []MixEntry{
			{Workload: WorkloadGEMM, N: 128},
			{Workload: WorkloadSort, N: 10000},
		},
	}
}

// TestQuotaIsolation is the serve tier's central claim: a tenant that
// persistently exceeds its memory quota is rejected at admission and has
// no effect on another tenant — neither on its latency distribution (p99)
// nor on its bit-exact results.
//
// Run A serves alpha alone; run B adds beta, whose every job (gemm n=512,
// 1 MiB resident B alone fills the quota) is unplannable within 1 MiB.
// Both runs are functional, so result hashes fingerprint real output.
func TestQuotaIsolation(t *testing.T) {
	topoSpec := TopoSpec{Preset: "apu-ssd", StorageMiB: 512, DRAMMiB: 64}

	solo := &Scenario{
		Name: "alpha-solo", Seed: 99, Workers: 2,
		Topology: topoSpec,
		Tenants:  []Tenant{alphaTenant()},
	}
	solo.applyDefaults()

	overQuota := Tenant{
		Name:     "beta",
		Rate:     200,
		QuotaMiB: 1,
		MaxJobs:  20,
		Mix:      []MixEntry{{Workload: WorkloadGEMM, N: 512}},
	}
	shared := &Scenario{
		Name: "alpha-vs-beta", Seed: 99, Workers: 2,
		Topology: topoSpec,
		Tenants:  []Tenant{alphaTenant(), overQuota},
	}
	shared.applyDefaults()

	runOne := func(scn *Scenario) (*Engine, *Report) {
		e, err := New(scn, RunOptions{Phantom: false})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := e.Run()
		if err != nil {
			t.Fatal(err)
		}
		return e, rep
	}
	eSolo, repSolo := runOne(solo)
	eShared, repShared := runOne(shared)

	// Every beta arrival is rejected for quota; nothing is ever admitted.
	var beta *TenantReport
	for i := range repShared.Tenants {
		if repShared.Tenants[i].Name == "beta" {
			beta = &repShared.Tenants[i]
		}
	}
	if beta == nil {
		t.Fatal("no beta tenant in shared report")
	}
	if beta.Arrivals != 20 {
		t.Fatalf("beta arrivals = %d, want 20", beta.Arrivals)
	}
	if beta.Admitted != 0 || beta.Completed != 0 {
		t.Fatalf("over-quota beta was served: %+v", beta)
	}
	if beta.Rejected["quota"] != beta.Arrivals {
		t.Fatalf("beta rejections %v, want all %d with reason quota", beta.Rejected, beta.Arrivals)
	}

	// The rejections are visible in the northup_serve_* counters.
	flat := eShared.TenantRegistry("beta").Flatten()
	found := false
	for name, v := range flat {
		if v == float64(beta.Arrivals) &&
			len(name) > len("northup_serve_rejected_total") &&
			name[:len("northup_serve_rejected_total")] == "northup_serve_rejected_total" {
			found = true
		}
	}
	if !found {
		t.Fatalf("no northup_serve_rejected_total counter carries beta's %d rejections: %v",
			beta.Arrivals, flat)
	}

	// Alpha's jobs are bit-for-bit unaffected: same arrivals, starts,
	// completions and output hashes in both runs.
	alphaRecs := func(e *Engine) []JobRecord {
		var out []JobRecord
		for _, r := range e.Records() {
			if r.Tenant == "alpha" {
				out = append(out, r)
			}
		}
		return out
	}
	soloRecs, sharedRecs := alphaRecs(eSolo), alphaRecs(eShared)
	if len(soloRecs) == 0 {
		t.Fatal("alpha completed no jobs")
	}
	if !reflect.DeepEqual(soloRecs, sharedRecs) {
		t.Fatalf("alpha's jobs changed under beta's pressure:\nsolo   %+v\nshared %+v", soloRecs, sharedRecs)
	}
	for _, r := range soloRecs {
		if r.Err != "" {
			t.Fatalf("alpha job failed: %+v", r)
		}
		if r.Hash == 0 {
			t.Fatalf("alpha job missing functional hash: %+v", r)
		}
	}

	// And so is its latency distribution, p99 included.
	var aSolo, aShared *TenantReport
	for i := range repSolo.Tenants {
		if repSolo.Tenants[i].Name == "alpha" {
			aSolo = &repSolo.Tenants[i]
		}
	}
	for i := range repShared.Tenants {
		if repShared.Tenants[i].Name == "alpha" {
			aShared = &repShared.Tenants[i]
		}
	}
	if aSolo.P99NS != aShared.P99NS || aSolo.P50NS != aShared.P50NS || aSolo.MaxNS != aShared.MaxNS {
		t.Fatalf("alpha latency moved: solo p50/p99/max %d/%d/%d, shared %d/%d/%d",
			aSolo.P50NS, aSolo.P99NS, aSolo.MaxNS, aShared.P50NS, aShared.P99NS, aShared.MaxNS)
	}
	if aSolo.Completed != aShared.Completed || aSolo.SLOViolations != aShared.SLOViolations {
		t.Fatalf("alpha outcome counts moved: solo %+v, shared %+v", aSolo, aShared)
	}
}

// TestBacklogRejection covers the second admission path: a tenant whose
// queue cap is tiny sheds load with reason "backlog" while still finishing
// what it admitted.
func TestBacklogRejection(t *testing.T) {
	scn := &Scenario{
		Name: "backlog", Seed: 5, Workers: 1,
		Topology: TopoSpec{Preset: "apu-ssd", StorageMiB: 256, DRAMMiB: 64},
		Tenants: []Tenant{{
			Name: "burst", Rate: 5000, QuotaMiB: 16, MaxJobs: 40, MaxQueue: 2,
			Mix: []MixEntry{{Workload: WorkloadGEMM, N: 256}},
		}},
	}
	scn.applyDefaults()
	e, err := New(scn, RunOptions{Phantom: true})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	tr := rep.Tenants[0]
	if tr.Rejected["backlog"] == 0 {
		t.Fatalf("burst tenant was never backlog-limited: %+v", tr)
	}
	if tr.Completed == 0 {
		t.Fatalf("burst tenant completed nothing: %+v", tr)
	}
	if tr.Admitted != tr.Completed+tr.JobErrors {
		t.Fatalf("admitted %d != completed %d + errors %d", tr.Admitted, tr.Completed, tr.JobErrors)
	}
	if got := tr.Arrivals; got != tr.Admitted+tr.Rejected["backlog"]+tr.Rejected["quota"] {
		t.Fatalf("arrival accounting off: %+v", tr)
	}
}

// TestTinyRateAdmitsNoJob: at 1e-12 jobs/s the first arrival gap (about
// 1e21 ns) is past the end of a 1 s scenario, and past the largest time the
// clock holds when the scenario has no duration, so no job arrives. The gap
// used to wrap negative when converted, landing every arrival at t=0.
func TestTinyRateAdmitsNoJob(t *testing.T) {
	for _, duration := range []string{"duration: 1s\n", ""} {
		scn, err := ParseScenario([]byte("name: tiny\nseed: 1\n" + duration + `tenants:
  - name: slow
    rate: 0.000000000001/s
    quota_mib: 4
    max_jobs: 3
    mix:
      - workload: sort
        n: 100
`))
		if err != nil {
			t.Fatal(err)
		}
		e, err := New(scn, RunOptions{Phantom: true})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := e.Run()
		if err != nil {
			t.Fatal(err)
		}
		if tr := rep.Tenants[0]; tr.Arrivals != 0 || tr.Admitted != 0 {
			t.Fatalf("%q: %d arrivals, %d admitted, want none", duration, tr.Arrivals, tr.Admitted)
		}
	}
}

// TestWeightedFairness checks the WFQ dispatcher favours the heavier
// tenant when both queues are persistently backlogged: with equal demand
// and weights 3:1, the heavy tenant should finish clearly more work.
func TestWeightedFairness(t *testing.T) {
	mk := func(name string, weight float64) Tenant {
		return Tenant{
			Name: name, Rate: 2000, Weight: weight, QuotaMiB: 8, MaxJobs: 30, MaxQueue: 64,
			Mix: []MixEntry{{Workload: WorkloadGEMM, N: 256}},
		}
	}
	scn := &Scenario{
		Name: "wfq", Seed: 31, Workers: 1,
		Duration: 0,
		Topology: TopoSpec{Preset: "apu-ssd", StorageMiB: 512, DRAMMiB: 64},
		Tenants:  []Tenant{mk("heavy", 3), mk("light", 1)},
	}
	scn.applyDefaults()
	e, err := New(scn, RunOptions{Phantom: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// Compare queueing delay: under WFQ the heavy tenant's admitted jobs
	// wait far less than the light tenant's.
	heavyWait := e.TenantRegistry("heavy").Flatten()
	lightWait := e.TenantRegistry("light").Flatten()
	hk, lk := histSum(heavyWait, "northup_serve_wait_ns"), histSum(lightWait, "northup_serve_wait_ns")
	if hk <= 0 || lk <= 0 {
		t.Fatalf("wait histograms empty: heavy %v light %v", hk, lk)
	}
	if hk >= lk {
		t.Fatalf("weight 3 tenant waited %v ns in aggregate, weight 1 waited %v — WFQ inverted", hk, lk)
	}
}

// histSum pulls a histogram's _sum series from a flattened registry.
func histSum(flat map[string]float64, name string) float64 {
	for k, v := range flat {
		if len(k) >= len(name)+4 && k[:len(name)] == name && containsSum(k) {
			return v
		}
	}
	return -1
}

func containsSum(k string) bool {
	for i := 0; i+4 <= len(k); i++ {
		if k[i:i+4] == "_sum" {
			return true
		}
	}
	return false
}
