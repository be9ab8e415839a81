package repro

// The benchmark harness: one benchmark per evaluation artifact of the
// paper. Each runs the corresponding figure driver at full paper scale
// (override with NORTHUP_SCALE=2|4|8 for quick looks) and reports the
// figure's headline quantities as benchmark metrics, so
//
//	go test -bench=. -benchmem
//
// regenerates the entire evaluation. The numbers to compare against the
// paper are recorded in EXPERIMENTS.md.

import (
	"os"
	"strconv"
	"testing"

	"repro/internal/figures"
	"repro/internal/trace"
)

// benchScale reads NORTHUP_SCALE (default 1 = paper scale).
func benchScale(b *testing.B) int {
	b.Helper()
	s := os.Getenv("NORTHUP_SCALE")
	if s == "" {
		return 1
	}
	n, err := strconv.Atoi(s)
	if err != nil {
		b.Fatalf("NORTHUP_SCALE=%q: %v", s, err)
	}
	return n
}

// BenchmarkFig06NormalizedRuntime regenerates Figure 6: normalized runtime
// of the three applications in-memory vs SSD vs disk on the 2-level APU
// tree. Metrics: <app>-ssd and <app>-disk normalized runtimes.
func BenchmarkFig06NormalizedRuntime(b *testing.B) {
	o := figures.Options{Scale: benchScale(b)}
	var res *figures.Fig6Result
	var err error
	for i := 0; i < b.N; i++ {
		res, err = figures.Fig6(o)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, app := range figures.Apps {
		b.ReportMetric(res.Row(app, figures.SSD).Normalized, app.String()+"-ssd")
		b.ReportMetric(res.Row(app, figures.HDD).Normalized, app.String()+"-disk")
	}
	b.Logf("\n%s", res)
}

// BenchmarkFig07Breakdown regenerates Figure 7: the execution breakdown on
// the 2-level APU tree. Metrics: GPU-compute share per app on each storage.
func BenchmarkFig07Breakdown(b *testing.B) {
	o := figures.Options{Scale: benchScale(b)}
	var res *figures.Fig7Result
	for i := 0; i < b.N; i++ {
		f6, err := figures.Fig6(o)
		if err != nil {
			b.Fatal(err)
		}
		res = &figures.Fig7Result{Fig6: f6}
	}
	for _, app := range figures.Apps {
		b.ReportMetric(res.Share(app, figures.HDD, trace.GPUCompute), app.String()+"-disk-gpu")
		b.ReportMetric(res.Share(app, figures.SSD, trace.GPUCompute), app.String()+"-ssd-gpu")
	}
	b.Logf("\n%s", res)
}

// BenchmarkFig08TransferShares regenerates Figure 8: the 3-level
// discrete-GPU breakdown. Metrics: the PCIe ("OpenCL transfers") share per
// app, the quantity the paper quotes as 7/12/33%.
func BenchmarkFig08TransferShares(b *testing.B) {
	o := figures.Options{Scale: benchScale(b)}
	var res *figures.Fig8Result
	var err error
	for i := 0; i < b.N; i++ {
		res, err = figures.Fig8(o)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, app := range figures.Apps {
		b.ReportMetric(res.TransferShare(app), app.String()+"-transfer")
	}
	b.Logf("\n%s", res)
}

// BenchmarkFig08DiskVariant runs the literal-caption variant of Figure 8
// with the disk-drive root (see EXPERIMENTS.md for why its transfer shares
// collapse).
func BenchmarkFig08DiskVariant(b *testing.B) {
	o := figures.Options{Scale: benchScale(b)}
	var res *figures.Fig8Result
	var err error
	for i := 0; i < b.N; i++ {
		res, err = figures.Fig8Disk(o)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.Logf("\n%s", res)
}

// BenchmarkFig09FasterStorage regenerates Figure 9: the §V-D projection
// sweep from the 1400/600 SSD to 3500/2100, with a native re-simulation
// cross-check. Metrics: I/O and native-total normalized values at the
// fastest target, and the in-memory Δ, per app.
func BenchmarkFig09FasterStorage(b *testing.B) {
	o := figures.Options{Scale: benchScale(b)}
	var res *figures.Fig9Result
	var err error
	for i := 0; i < b.N; i++ {
		res, err = figures.Fig9(o)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, app := range figures.Apps {
		s := res.SeriesFor(app)
		last := s.Points[len(s.Points)-1]
		b.ReportMetric(last.IONorm, app.String()+"-io@3500")
		b.ReportMetric(last.NativeNorm, app.String()+"-total@3500")
		b.ReportMetric(s.InMemDelta, app.String()+"-inmem-delta")
	}
	b.Logf("\n%s", res)
}

// BenchmarkFig11WorkStealing regenerates Figure 11: HotSpot-2D CPU+GPU
// work stealing versus GPU-only across (m, n) inputs and queue counts.
// Metrics: stealing speedup per configuration.
func BenchmarkFig11WorkStealing(b *testing.B) {
	o := figures.Options{Scale: benchScale(b)}
	var res *figures.Fig11Result
	var err error
	for i := 0; i < b.N; i++ {
		res, err = figures.Fig11(o)
		if err != nil {
			b.Fatal(err)
		}
	}
	best := 0.0
	for _, c := range res.Cells {
		if c.Speedup > best {
			best = c.Speedup
		}
	}
	b.ReportMetric(best, "best-speedup")
	b.Logf("\n%s", res)
}

// BenchmarkRuntimeOverhead regenerates the §V-B claim that Northup's
// bookkeeping stays below 1% of execution. Metric: the worst overhead
// fraction across the applications.
func BenchmarkRuntimeOverhead(b *testing.B) {
	scale := benchScale(b)
	if scale == 1 {
		scale = 2 // identical conclusion, much cheaper run
	}
	o := figures.Options{Scale: scale}
	var res *figures.OverheadResult
	var err error
	for i := 0; i < b.N; i++ {
		res, err = figures.Overhead(o)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.Max(), "max-overhead-fraction")
	b.Logf("\n%s", res)
}
