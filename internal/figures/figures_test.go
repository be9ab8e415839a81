package figures

import (
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/trace"
)

// Scale-8 runs finish in well under a second each and preserve the broad
// shapes; the full paper-scale checks live in the *PaperScale tests below
// (skipped with -short) and in the repository's benchmark harness.

// checkCSVGolden requires a paper-scale figure's CSV to equal
// testdata/<fig>.csv, what `northup-bench -fig <fig> -format csv` prints.
// The figures are deterministic, so a change that moves any number fails
// here; rewrite the file only for an intended model change.
func checkCSVGolden(t *testing.T, fig, got string) {
	t.Helper()
	want, err := os.ReadFile(filepath.Join("testdata", fig+".csv"))
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("figure %s CSV differs from testdata/%s.csv\ngot:\n%swant:\n%s", fig, fig, got, want)
	}
}

func TestFig6ShapesSmall(t *testing.T) {
	res, err := Fig6(Options{Scale: 8})
	if err != nil {
		t.Fatal(err)
	}
	for _, app := range Apps {
		im := res.Row(app, InMemory)
		ssd := res.Row(app, SSD)
		hdd := res.Row(app, HDD)
		if im.Normalized != 1.0 {
			t.Fatalf("%v: in-memory not normalized to 1", app)
		}
		if !(ssd.Normalized > 1.0) {
			t.Fatalf("%v: SSD (%f) not slower than in-memory", app, ssd.Normalized)
		}
		if !(hdd.Normalized > ssd.Normalized) {
			t.Fatalf("%v: disk (%f) not slower than SSD (%f)", app, hdd.Normalized, ssd.Normalized)
		}
	}
	// CSR suffers most (Fig. 6's spread). GEMM's position depends on its
	// O(N^3) compute to O(N^2) I/O ratio, which shrinking the input erodes
	// — the paper-scale test asserts it.
	if !(res.Row(SpMV, SSD).Normalized > res.Row(HotSpot, SSD).Normalized) {
		t.Fatal("CSR-Adaptive not the most affected app on SSD")
	}
	if !strings.Contains(res.String(), "dense-mm") {
		t.Fatal("String output incomplete")
	}
}

// paperFig6 runs Figure 6 at paper scale once per test process: Figure 7
// is a view of the same runs.
var paperFig6 = sync.OnceValues(func() (*Fig6Result, error) { return Fig6(Options{Scale: 1}) })

func TestFig6PaperScale(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale run skipped in -short mode")
	}
	res, err := paperFig6()
	if err != nil {
		t.Fatal(err)
	}
	checkCSVGolden(t, "6", res.CSV())
	checks := []struct {
		name   string
		v      float64
		lo, hi float64
	}{
		// Paper: GEMM barely affected on SSD (in-memory gap ~5%).
		{"gemm-ssd", res.Row(GEMM, SSD).Normalized, 1.0, 1.25},
		// Paper: HotSpot ~1.3x on SSD.
		{"hotspot-ssd", res.Row(HotSpot, SSD).Normalized, 1.1, 1.5},
		// Paper: CSR ~2.4x on SSD.
		{"csr-ssd", res.Row(SpMV, SSD).Normalized, 1.7, 2.8},
		// Paper: HotSpot 2-2.5x slowdown (normalized ~3-3.5) on disk.
		{"hotspot-disk", res.Row(HotSpot, HDD).Normalized, 2.3, 4.0},
		// GEMM on disk: I/O partly hidden by compute.
		{"gemm-disk", res.Row(GEMM, HDD).Normalized, 1.5, 3.0},
	}
	for _, c := range checks {
		if err := checkShape(c.name, c.v, c.lo, c.hi); err != nil {
			t.Error(err)
		}
	}
}

func TestFig7BreakdownShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale run skipped in -short mode")
	}
	f6, err := paperFig6()
	if err != nil {
		t.Fatal(err)
	}
	res := &Fig7Result{Fig6: f6}
	checkCSVGolden(t, "7", res.CSV())
	// Paper: GEMM spends the majority of time on GPU compute (disk cfg
	// shows I/O dominance for the memory-bound apps).
	if err := checkShape("gemm-ssd-gpu-share",
		res.Share(GEMM, SSD, trace.GPUCompute), 0.5, 0.95); err != nil {
		t.Error(err)
	}
	// Paper: HotSpot GPU share ~22% on disk, rising on SSD.
	if err := checkShape("hotspot-disk-gpu-share",
		res.Share(HotSpot, HDD, trace.GPUCompute), 0.12, 0.35); err != nil {
		t.Error(err)
	}
	if !(res.Share(HotSpot, SSD, trace.GPUCompute) > res.Share(HotSpot, HDD, trace.GPUCompute)) {
		t.Error("HotSpot GPU share did not rise from disk to SSD")
	}
	if !(res.Share(SpMV, SSD, trace.GPUCompute) > res.Share(SpMV, HDD, trace.GPUCompute)) {
		t.Error("CSR GPU share did not rise from disk to SSD")
	}
	// CSR-Adaptive is the only app with visible CPU time (row binning).
	if !(res.Share(SpMV, SSD, trace.CPUCompute) > res.Share(GEMM, SSD, trace.CPUCompute)) {
		t.Error("CSR binning CPU share not visible")
	}
	if !strings.Contains(res.String(), "csr-adaptive") {
		t.Error("String output incomplete")
	}
}

func TestFig8TransferShares(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale run skipped in -short mode")
	}
	res, err := Fig8(Options{Scale: 1})
	if err != nil {
		t.Fatal(err)
	}
	checkCSVGolden(t, "8", res.CSV())
	// Paper: OpenCL transfers 7% for GEMM; all apps show a visible PCIe
	// component on the 3-level tree.
	if err := checkShape("gemm-transfer-share", res.TransferShare(GEMM), 0.04, 0.12); err != nil {
		t.Error(err)
	}
	for _, app := range Apps {
		if res.TransferShare(app) <= 0.01 {
			t.Errorf("%v: PCIe transfer share invisible (%.3f)", app, res.TransferShare(app))
		}
	}
	// The literal disk-root variant exists and is I/O-swamped.
	disk, err := Fig8Disk(Options{Scale: 1})
	if err != nil {
		t.Fatal(err)
	}
	checkCSVGolden(t, "8disk", disk.CSV())
	for _, app := range Apps {
		if disk.TransferShare(app) >= res.TransferShare(app) {
			t.Errorf("%v: disk-root transfer share not smaller than SSD-root", app)
		}
	}
}

func TestFig9Shapes(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale run skipped in -short mode")
	}
	res, err := Fig9(Options{Scale: 1})
	if err != nil {
		t.Fatal(err)
	}
	checkCSVGolden(t, "9", res.CSV())
	for _, app := range Apps {
		s := res.SeriesFor(app)
		last := s.Points[len(s.Points)-1]
		// Paper: I/O improves by ~65% at 3500/2100.
		if err := checkShape(app.String()+"-io-gain", 1-last.IONorm, 0.5, 0.75); err != nil {
			t.Error(err)
		}
		// Projection and native rerun must agree on direction and be
		// monotone non-increasing across the sweep.
		for i := 1; i < len(s.Points); i++ {
			if s.Points[i].NativeNorm > s.Points[i-1].NativeNorm+1e-9 {
				t.Errorf("%v: native total increased with faster storage", app)
			}
			if s.Points[i].ProjectedNorm > s.Points[i-1].ProjectedNorm+1e-9 {
				t.Errorf("%v: projected total increased with faster storage", app)
			}
		}
		// In-memory Δ is the lower envelope.
		if s.InMemDelta > last.NativeNorm+1e-9 {
			t.Errorf("%v: in-memory Δ (%.2f) above fastest-SSD native (%.2f)",
				app, s.InMemDelta, last.NativeNorm)
		}
	}
	// Paper: overall gains ~30% for the memory-intensive apps, small for
	// GEMM.
	csr := res.SeriesFor(SpMV)
	if err := checkShape("csr-overall-gain",
		1-csr.Points[len(csr.Points)-1].NativeNorm, 0.2, 0.5); err != nil {
		t.Error(err)
	}
	gemmS := res.SeriesFor(GEMM)
	if gain := 1 - gemmS.Points[len(gemmS.Points)-1].NativeNorm; gain > 0.15 {
		t.Errorf("GEMM overall gain %.2f implausibly large (compute-bound)", gain)
	}
}

func TestFig11Shapes(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale run skipped in -short mode")
	}
	res, err := Fig11(Options{Scale: 1})
	if err != nil {
		t.Fatal(err)
	}
	checkCSVGolden(t, "11", res.CSV())
	if len(res.Cells) != len(paperFig11Inputs)*len(Fig11QueueCounts) {
		t.Fatalf("%d cells", len(res.Cells))
	}
	best := 0.0
	for _, c := range res.Cells {
		if c.Speedup <= 1.0 {
			t.Errorf("(%d,%d) q=%d: stealing not faster (%.2fx)",
				c.Input.M, c.Input.N, c.Queues, c.Speedup)
		}
		if c.Steals == 0 {
			t.Errorf("(%d,%d) q=%d: no steals", c.Input.M, c.Input.N, c.Queues)
		}
		if c.Speedup > best {
			best = c.Speedup
		}
	}
	// Paper: improvement up to ~24%.
	if err := checkShape("best-stealing-speedup", best, 1.15, 1.40); err != nil {
		t.Error(err)
	}
	// Paper: 32 queues perform best (GPU-only times, latency hiding).
	for _, in := range paperFig11Inputs {
		if res.Cell(in, 32).GPUOnly >= res.Cell(in, 8).GPUOnly {
			t.Errorf("(%d,%d): 32 queues not faster than 8 for GPU-only", in.M, in.N)
		}
	}
}

func TestOverheadBelowOnePercent(t *testing.T) {
	o := Options{Scale: 4}
	if testing.Short() {
		o.Scale = 8
	}
	res, err := Overhead(o)
	if err != nil {
		t.Fatal(err)
	}
	if res.Max() >= 0.01 {
		t.Fatalf("runtime overhead %.2f%% >= 1%%", 100*res.Max())
	}
	if res.Max() <= 0 {
		t.Fatal("overhead not measured")
	}
}

// TestOverheadAndCacheCSVGoldens pins the two paper-scale figures no shape
// test runs at scale 1; the stream, serve and affinity goldens ride on
// TestCommittedSweepsRegenerate's runs.
func TestOverheadAndCacheCSVGoldens(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale run skipped in -short mode")
	}
	o := Options{Scale: 1}
	ov, err := Overhead(o)
	if err != nil {
		t.Fatal(err)
	}
	checkCSVGolden(t, "overhead", ov.CSV())
	ca, err := CacheAblation(o)
	if err != nil {
		t.Fatal(err)
	}
	checkCSVGolden(t, "cache", ca.CSV())
}

func TestOptionsValidation(t *testing.T) {
	if _, err := Fig6(Options{Scale: 3}); err == nil {
		t.Fatal("scale 3 accepted")
	}
	if _, err := Fig11(Options{Scale: 5}); err == nil {
		t.Fatal("scale 5 accepted")
	}
}

func TestCSVOutputs(t *testing.T) {
	o := Options{Scale: 8}
	f6, err := Fig6(o)
	if err != nil {
		t.Fatal(err)
	}
	csv := f6.CSV()
	if !strings.HasPrefix(csv, "app,storage,elapsed_s,normalized\n") {
		t.Fatalf("fig6 CSV header wrong:\n%s", csv)
	}
	if n := strings.Count(csv, "\n"); n != 10 { // header + 9 rows
		t.Fatalf("fig6 CSV has %d lines", n)
	}
	f7 := &Fig7Result{Fig6: f6}
	if !strings.Contains(f7.CSV(), "csr-adaptive,ssd,") {
		t.Fatal("fig7 CSV missing rows")
	}
	ov, err := Overhead(o)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(ov.CSV(), "dense-mm,0.") {
		t.Fatalf("overhead CSV malformed:\n%s", ov.CSV())
	}
	// Every figure result satisfies Renderer.
	var _ Renderer = f6
	var _ Renderer = f7
	var _ Renderer = ov
}
