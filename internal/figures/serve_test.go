package figures

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

// TestServeSaturationShape checks the sweep covers every multiplier, that
// load and rejections are monotone with offered rate at the extremes, and
// that a knee exists: the highest offered load completes less than it
// admits at the low end would suggest, i.e. rejections appear.
func TestServeSaturationShape(t *testing.T) {
	r, err := ServeSaturation(Options{Scale: 8})
	if err != nil {
		t.Fatal(err)
	}
	if r.Schema != serveSchema {
		t.Fatalf("schema %q, want %q", r.Schema, serveSchema)
	}
	if len(r.Points) != len(serveRateMuls) {
		t.Fatalf("%d points, want %d", len(r.Points), len(serveRateMuls))
	}
	for i, p := range r.Points {
		if p.RateMul != serveRateMuls[i] {
			t.Fatalf("point %d multiplier %g, want %g", i, p.RateMul, serveRateMuls[i])
		}
		if p.Arrivals <= 0 || p.Completed <= 0 {
			t.Fatalf("point %gx saw no traffic: %+v", p.RateMul, p)
		}
		if p.Arrivals != p.Admitted+p.Rejected {
			t.Fatalf("point %gx arrival accounting off: %+v", p.RateMul, p)
		}
	}
	first, last := r.Points[0], r.Points[len(r.Points)-1]
	if last.Arrivals <= first.Arrivals {
		t.Fatalf("offered load did not scale: %d arrivals at %gx vs %d at %gx",
			first.Arrivals, first.RateMul, last.Arrivals, last.RateMul)
	}
	// The knee: under light load nothing is shed; past saturation the
	// engine rejects and the tail grows.
	if first.Rejected != 0 {
		t.Fatalf("light load already shedding: %+v", first)
	}
	if last.Rejected == 0 {
		t.Fatalf("8x offered load shed nothing — no knee: %+v", last)
	}
	if last.P99NS <= first.P99NS {
		t.Fatalf("p99 did not grow with load: %v at %gx vs %v at %gx",
			first.P99NS, first.RateMul, last.P99NS, last.RateMul)
	}
}

// paperServe runs the scale-1 saturation sweep once per test process for
// the renderer and committed-bytes checks; only the determinism check runs
// it a second time.
var paperServe = sync.OnceValues(func() (*ServeResult, error) { return ServeSaturation(Options{Scale: 1}) })

// TestServeSaturationDeterministic pins the committed-document promise:
// two runs render byte-identical JSON.
func TestServeSaturationDeterministic(t *testing.T) {
	a, err := paperServe()
	if err != nil {
		t.Fatal(err)
	}
	b, err := ServeSaturation(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if a.JSON() != b.JSON() {
		t.Fatal("two identical sweeps produced different documents")
	}
}

// TestServeSaturationRenderers checks the Renderer surfaces agree on the
// point count and the JSON document round-trips.
func TestServeSaturationRenderers(t *testing.T) {
	r, err := paperServe()
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(r.CSV(), "\n"); got != len(r.Points)+1 {
		t.Fatalf("CSV has %d lines, want header + %d points", got, len(r.Points))
	}
	if !strings.Contains(r.String(), "saturation") {
		t.Fatalf("table omits the scenario name:\n%s", r.String())
	}
	var back ServeResult
	if err := json.Unmarshal([]byte(r.JSON()), &back); err != nil {
		t.Fatal(err)
	}
	if len(back.Points) != len(r.Points) || back.Schema != r.Schema {
		t.Fatalf("JSON round trip lost data: %+v", back)
	}
}
