package serve

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/sim"
)

// FuzzParseScenario holds ParseScenario to its contract: arbitrary input —
// malformed YAML, negative rates, zero quotas, unknown workload names,
// binary garbage — must produce an error or a scenario that passes
// Validate, and must never panic.
func FuzzParseScenario(f *testing.F) {
	f.Add([]byte(sampleYAML))
	f.Add([]byte(`{"name":"j","duration":"1s","tenants":[{"name":"t","rate":1,"quota_mib":1,"mix":[{"workload":"sort","n":10}]}]}`))
	f.Add([]byte("name: x\nduration: 1s\ntenants:\n  - name: a\n    rate: -5/s\n    quota_mib: 0\n    mix:\n      - workload: nope\n        n: 10\n"))
	f.Add([]byte("tenants:\n\t- bad tab\n"))
	f.Add([]byte("- just\n- a\n- list\n"))
	f.Add([]byte("key: [flow, style]\n"))
	f.Add([]byte("a:\n  b:\n    c: 'unterminated\n"))
	f.Add([]byte("name: \"esc\\q\"\n"))
	f.Add([]byte("\xff\xfe\x00 binary"))
	f.Add([]byte("{"))
	f.Add([]byte("name: x\nname: y\n"))
	f.Add([]byte("rate: 1e309\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		scn, err := ParseScenario(data)
		if err != nil {
			if scn != nil {
				t.Fatalf("error %v returned alongside a scenario", err)
			}
			return
		}
		// Whatever parses must already be valid and re-validate cleanly.
		if verr := scn.Validate(); verr != nil {
			t.Fatalf("parsed scenario fails Validate: %v", verr)
		}
		for _, tn := range scn.Tenants {
			if tn.Rate <= 0 || tn.QuotaMiB <= 0 {
				t.Fatalf("invalid tenant escaped validation: %+v", tn)
			}
			for _, m := range tn.Mix {
				switch m.Workload {
				case WorkloadGEMM, WorkloadSpMV, WorkloadHotSpot, WorkloadSort:
				default:
					t.Fatalf("unknown workload escaped validation: %q", m.Workload)
				}
			}
		}
		if strings.TrimSpace(scn.Name) == "" {
			t.Fatalf("unnamed scenario escaped validation")
		}
	})
}

// FuzzScenarioRun fuzzes the engine, not only the parser: every scenario
// that parses is clamped to a small run (clampRun), re-validated and run
// twice in phantom mode. The runs must agree byte for byte, each job must
// start no earlier than it arrives and finish no earlier than it starts,
// each tenant's admitted jobs must all complete or fail, and
// total_work_bytes must be the planned cost of the completed jobs.
func FuzzScenarioRun(f *testing.F) {
	specs, err := filepath.Glob("../../specs/scenarios/*")
	if err != nil || len(specs) == 0 {
		f.Fatalf("no committed scenarios to seed from (%v)", err)
	}
	for _, path := range specs {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(sampleYAML))
	f.Fuzz(func(t *testing.T, data []byte) {
		scn, err := ParseScenario(data)
		if err != nil {
			return
		}
		clampRun(scn)
		if scn.Validate() != nil {
			return
		}
		rep1, recs1, _ := fuzzRun(t, scn)
		rep2, recs2, work := fuzzRun(t, scn)
		if !bytes.Equal(rep1, rep2) || !reflect.DeepEqual(recs1, recs2) {
			t.Fatalf("same scenario, different runs:\n%s\n%s", rep1, rep2)
		}
		for _, r := range recs1 {
			if r.StartNS < r.ArriveNS || r.DoneNS < r.StartNS {
				t.Fatalf("job %s/%d out of order: arrive %d start %d done %d",
					r.Tenant, r.ID, r.ArriveNS, r.StartNS, r.DoneNS)
			}
		}
		var rep Report
		if err := json.Unmarshal(rep1, &rep); err != nil {
			t.Fatal(err)
		}
		for _, tr := range rep.Tenants {
			if tr.Admitted != tr.Completed+tr.JobErrors {
				t.Fatalf("tenant %s admitted %d, completed %d, failed %d",
					tr.Name, tr.Admitted, tr.Completed, tr.JobErrors)
			}
		}
		if want := completedWork(recs1, work); rep.TotalBytes != want {
			t.Fatalf("total_work_bytes %d, planned cost of completed jobs %d", rep.TotalBytes, want)
		}
	})
}

// clampRun bounds a scenario's run: n <= 256 (a multiple of every
// workload's alignment), at most 8 iterations, at most 8 arrivals per
// tenant, 50 ms of arrivals, at most 4 workers, and an ops plane that
// samples at most every millisecond over windows of at most a second.
func clampRun(scn *Scenario) {
	scn.Duration = min(scn.Duration, 50*sim.Millisecond)
	scn.Workers = min(scn.Workers, 4)
	scn.Ops.Step = min(max(scn.Ops.Step, sim.Millisecond), 100*sim.Millisecond)
	scn.Ops.Window = min(scn.Ops.Window, sim.Second)
	for i := range scn.Alerts {
		r := &scn.Alerts[i]
		r.FastWindow, r.SlowWindow = min(r.FastWindow, sim.Second), min(r.SlowWindow, sim.Second)
	}
	for i := range scn.Tenants {
		tn := &scn.Tenants[i]
		if tn.MaxJobs == 0 || tn.MaxJobs > 8 {
			tn.MaxJobs = 8
		}
		for j := range tn.Mix {
			tn.Mix[j].N = min(tn.Mix[j].N, 256)
			tn.Mix[j].Iters = min(tn.Mix[j].Iters, 8)
		}
	}
}

// fuzzRun runs a scenario in phantom mode and returns its report JSON, its
// job records and the planned cost of each job that computed a strip.
func fuzzRun(t *testing.T, scn *Scenario) ([]byte, []JobRecord, map[jobKey]int64) {
	e, err := New(scn, RunOptions{Phantom: true})
	if err != nil {
		t.Fatal(err)
	}
	work := observeWork(e)
	rep, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), e.Records(), work
}
