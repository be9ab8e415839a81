package figures

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"
)

// TestCommittedSweepsRegenerate regenerates the committed artifacts
// (`northup-bench -fig X -format json` at paper scale, which `make
// bench-json` writes to the repository root, and the perf baseline
// `northup-bench -baseline` writes) and requires byte identity, so a change
// that moves any of them fails here instead of drifting until the next
// regeneration. The sweeps' runs also check their figures' CSV goldens.
func TestCommittedSweepsRegenerate(t *testing.T) {
	type jsonRenderer interface {
		Renderer
		JSON() string
	}
	o := Options{Scale: 1}
	for _, tc := range []struct {
		file string
		fig  string // the CSV golden the run also checks, if any
		run  func() (jsonRenderer, error)
	}{
		{"BENCH_stream.json", "stream", func() (jsonRenderer, error) { return StreamOverlap(o) }},
		{"BENCH_serve.json", "serve", func() (jsonRenderer, error) { return ServeSaturation(o) }},
		{"BENCH_affinity.json", "affinity", func() (jsonRenderer, error) { return AffinityAblation(o) }},
		{"BENCH_perf.json", "", func() (jsonRenderer, error) { return PerfSuite(o) }},
	} {
		t.Run(tc.file, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("..", "..", tc.file))
			if err != nil {
				t.Fatal(err)
			}
			res, err := tc.run()
			if err != nil {
				t.Fatal(err)
			}
			if tc.fig != "" {
				checkCSVGolden(t, tc.fig, res.CSV())
			}
			if got := res.JSON(); got != string(want) {
				t.Errorf("regenerated %s differs from the committed file (%d vs %d bytes); "+
					"regenerate it with make bench-json only for an intended change",
					tc.file, len(got), len(want))
				if p, ok := res.(*PerfProfile); ok {
					base, err := ParsePerfProfile(want)
					if err != nil {
						t.Fatal(err)
					}
					for _, d := range perfDiff(base, p) {
						t.Error(d)
					}
				}
			}
		})
	}
}

// perfDiff lists every value that differs between the baseline want and
// the run got, one line per entry and metric. A series or entry absent from
// one side reads as 0 there, so a series that turns non-zero or vanishes is
// a difference like any other.
func perfDiff(want, got *PerfProfile) []string {
	var diffs []string
	if want.Scale != got.Scale {
		diffs = append(diffs, fmt.Sprintf("scale: %d -> %d", want.Scale, got.Scale))
	}
	w, g := map[string]AppPerf{}, map[string]AppPerf{}
	var names []string
	for _, a := range want.Apps {
		w[a.Name] = a
		names = append(names, a.Name)
	}
	for _, a := range got.Apps {
		g[a.Name] = a
		if _, ok := w[a.Name]; !ok {
			names = append(names, a.Name)
		}
	}
	for _, name := range names {
		a, b := w[name], g[name]
		if a.ElapsedNS != b.ElapsedNS {
			diffs = append(diffs, fmt.Sprintf("%s: elapsed_ns %d -> %d", name, a.ElapsedNS, b.ElapsedNS))
		}
		var keys []string
		for k := range a.Metrics {
			keys = append(keys, k)
		}
		for k := range b.Metrics {
			if _, ok := a.Metrics[k]; !ok {
				keys = append(keys, k)
			}
		}
		sort.Strings(keys)
		for _, k := range keys {
			if a.Metrics[k] != b.Metrics[k] {
				diffs = append(diffs, fmt.Sprintf("%s: %s %v -> %v", name, k, a.Metrics[k], b.Metrics[k]))
			}
		}
	}
	return diffs
}
