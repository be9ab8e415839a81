package figures

import (
	"os"
	"path/filepath"
	"testing"
)

// TestCommittedSweepsRegenerate regenerates the committed sweep artifacts
// (`northup-bench -fig X -format json` at paper scale, which `make
// bench-json` writes to the repository root) and requires byte identity,
// so a change that moves any of them fails here instead of drifting until
// the next regeneration.
func TestCommittedSweepsRegenerate(t *testing.T) {
	type jsonRenderer interface{ JSON() string }
	o := Options{Scale: 1}
	for _, tc := range []struct {
		file string
		run  func() (jsonRenderer, error)
	}{
		{"BENCH_stream.json", func() (jsonRenderer, error) { return StreamOverlap(o) }},
		{"BENCH_serve.json", func() (jsonRenderer, error) { return ServeSaturation(o) }},
		{"BENCH_affinity.json", func() (jsonRenderer, error) { return AffinityAblation(o) }},
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
			if got := res.JSON(); got != string(want) {
				t.Errorf("regenerated %s differs from the committed file (%d vs %d bytes); "+
					"regenerate it with make bench-json only for an intended change",
					tc.file, len(got), len(want))
			}
		})
	}
}
