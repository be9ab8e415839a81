package figures

import (
	"math"
	"strings"
	"testing"
)

// perfProfile runs the suite at scale 8, where it takes a few tens of
// milliseconds.
func perfProfile(t *testing.T) *PerfProfile {
	t.Helper()
	p, err := PerfSuite(Options{Scale: 8})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestPerfSuiteShape checks the profile covers the three apps plus the
// streamed-shard, serve-mix and affinity entries with real virtual time,
// engine counts and only non-zero series.
func TestPerfSuiteShape(t *testing.T) {
	p := perfProfile(t)
	want := []string{"dense-mm", "hotspot-2d", "csr-adaptive", "stream-overlap", "serve-mix", "affinity"}
	if len(p.Apps) != len(want) {
		t.Fatalf("profile has %d entries, want %d", len(p.Apps), len(want))
	}
	entry := map[string]AppPerf{}
	for i, a := range p.Apps {
		if a.Name != want[i] {
			t.Fatalf("entry %d is %q, want %q", i, a.Name, want[i])
		}
		entry[a.Name] = a
		if a.ElapsedNS <= 0 {
			t.Errorf("%s: elapsed %d, want > 0", a.Name, a.ElapsedNS)
		}
		for name, v := range a.Metrics {
			if v == 0 {
				t.Errorf("%s: zero-valued series %s kept", a.Name, name)
			}
		}
		if a.Metrics["northup_sim_events_total"] <= 0 || a.Metrics["northup_sim_procs_total"] <= 0 {
			t.Errorf("%s: no engine event or process counts", a.Name)
		}
		if a.Name != "affinity" && a.Metrics[`northup_busy_ns_total{cat="gpu"}`] <= 0 {
			// The affinity task graph places work on the leaf CPUs.
			t.Errorf("%s: no GPU busy time in metrics", a.Name)
		}
	}
	aff := entry["affinity"]
	if aff.Metrics["northup_sched_affinity_picks"] <= 0 {
		t.Fatal("affinity entry records no affinity placements")
	}
	saved := 0.0
	for name, v := range aff.Metrics {
		if strings.HasPrefix(name, "northup_sched_moved_bytes_saved_total") {
			saved += v
		}
	}
	if saved <= 0 {
		t.Fatal("affinity entry claims no saved bytes")
	}
	srv := entry["serve-mix"]
	if srv.Metrics[`northup_serve_completed_total{tenant="interactive"}`] <= 0 {
		t.Fatal("serve-mix entry carries no tenant completion counters")
	}
	stream := entry["stream-overlap"]
	if stream.Metrics["northup_stream_subchunks_total"] < 3 {
		t.Fatalf("stream entry moved %v sub-chunks, want adaptive >= 3",
			stream.Metrics["northup_stream_subchunks_total"])
	}
	// Streamed moves and serve's arrival chains run as engine callbacks.
	for _, a := range []AppPerf{stream, srv} {
		if a.Metrics["northup_sim_callbacks_total"] <= 0 {
			t.Errorf("%s: no callback events", a.Name)
		}
	}
}

// TestPerfDiffReport holds the baseline comparison to exactness: each
// perturbation of a run, however small, is reported on one line naming its
// entry and metric, and an unperturbed run reports nothing.
func TestPerfDiffReport(t *testing.T) {
	base := perfProfile(t)
	const absent = "northup_sim_callbacks_total"
	if _, ok := base.Apps[0].Metrics[absent]; ok {
		t.Fatalf("%s: %s present; the series-appears case needs it absent", base.Apps[0].Name, absent)
	}
	for _, tc := range []struct {
		name    string
		perturb func(a *AppPerf)
		want    string // the metric the report must name; "" for no report
	}{
		{"unchanged", func(a *AppPerf) {}, ""},
		{"one ulp", func(a *AppPerf) {
			v := a.Metrics[`northup_busy_ns_total{cat="gpu"}`]
			a.Metrics[`northup_busy_ns_total{cat="gpu"}`] = math.Nextafter(v, math.Inf(1))
		}, `northup_busy_ns_total{cat="gpu"}`},
		{"series appears", func(a *AppPerf) { a.Metrics[absent] = 1 }, absent},
		{"series vanishes", func(a *AppPerf) {
			delete(a.Metrics, `northup_busy_ns_total{cat="gpu"}`)
		}, `northup_busy_ns_total{cat="gpu"}`},
		{"elapsed", func(a *AppPerf) { a.ElapsedNS++ }, "elapsed_ns"},
		{"procs", func(a *AppPerf) { a.Metrics["northup_sim_procs_total"]++ }, "northup_sim_procs_total"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			run, err := ParsePerfProfile([]byte(base.JSON()))
			if err != nil {
				t.Fatal(err)
			}
			tc.perturb(&run.Apps[0])
			diffs := perfDiff(base, run)
			if tc.want == "" {
				if len(diffs) != 0 {
					t.Fatalf("unperturbed run reported: %q", diffs)
				}
				return
			}
			if len(diffs) != 1 || !strings.HasPrefix(diffs[0], base.Apps[0].Name+": "+tc.want+" ") {
				t.Fatalf("report %q, want one line naming %s: %s", diffs, base.Apps[0].Name, tc.want)
			}
		})
	}
}

// TestPerfParseRejectsBadSchema guards the baseline format version.
func TestPerfParseRejectsBadSchema(t *testing.T) {
	if _, err := ParsePerfProfile([]byte(`{"schema":"bogus/v9"}`)); err == nil {
		t.Fatal("foreign schema accepted")
	}
	if _, err := ParsePerfProfile([]byte(`{nope`)); err == nil {
		t.Fatal("malformed JSON accepted")
	}
}
