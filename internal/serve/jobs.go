package serve

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/apps/gemm"
	"repro/internal/apps/hotspot"
	"repro/internal/apps/oocsort"
	"repro/internal/core"
	"repro/internal/gpu"
	"repro/internal/journey"
	"repro/internal/sim"
	"repro/internal/view"
	"repro/internal/workload"
)

// job is one admitted unit of tenant traffic.
type job struct {
	tenant string
	id     int
	seed   int64 // input-data seed, drawn from the tenant's arrival RNG
	arrive sim.Time
	plan   *jobPlan // the tenant's plan for the drawn mix entry
	// jny is the job's journey, nil when journeys are off or the job was
	// not sampled. journey.Job methods are nil-safe where the driver calls
	// them.
	jny *journey.Job

	// The driver's buffers, indexed like the shape's files, resident
	// buffers and strip buffers; the leaf reads them.
	files [3]*core.Buffer
	res   [2]*core.Buffer
	buf   [3]*core.Buffer
	csr   *workload.CSR // SpMV's host matrix (functional runs)
}

// Admission reject reasons: the label set of
// northup_admission_reject_total and the suffix of the reject trace
// instants (journeys.go).
const (
	// rejectQuota: the job's resident working set alone exceeds the
	// tenant quota — no chunking can save it.
	rejectQuota = "quota"
	// rejectMinStrip: the resident set fits but not together with even the
	// minimum strip the workload can chunk down to.
	rejectMinStrip = "min_strip"
	// rejectBacklog: the tenant's admission queue is full.
	rejectBacklog = "backlog"
)

// noFile marks a buffer that loads from, or stores to, no file.
const noFile = -1

// fileSpec is one of a job's files: its name suffix and size in bytes.
type fileSpec struct {
	part  string
	bytes int64
}

// bufSpec is one staging buffer of a shape: its bytes per row, and the
// indexes into the shape's files that it loads from and stores to (noFile
// for either). A strip buffer covers the strip's rows, a resident buffer
// all n rows; either moves the same rows of its files.
type bufSpec struct {
	perRow   int64
	from, to int
}

// shape is one mix entry's layout, the only thing the admission planner
// and the job driver read: the job's files, the buffers it keeps resident
// in staging, the buffers of one strip, the strip alignment, the
// iteration count, the output file and the WFQ cost. A workload supplies
// only its inputs and its leaf computation.
type shape struct {
	workload string
	n        int
	iters    int
	files    []fileSpec
	resident []bufSpec
	strip    []bufSpec
	align    int
	out      int // the file whose hash is the job's result
	// WorkBytes is the job's weighted-fair-queueing cost — the bytes it
	// stages through the memory hierarchy.
	WorkBytes int64
	// inputs returns the payloads of the job's files in file order (nil
	// for a file that starts empty) and sets any host state the leaf
	// reads. Functional runs only.
	inputs func(jb *job) [3][]byte
	// leaf computes rows [r0, r0+rows) at the staging node.
	leaf func(lc *core.Ctx, jb *job, r0, rows int) error
}

// spmvRowBytes is the staged bytes of one serve SpMV row: spmvAvgNNZ
// entries of a 4 B column index and a 4 B value.
const spmvRowBytes = spmvAvgNNZ * 8

// shapeOf lays out a validated mix entry.
func shapeOf(m MixEntry) shape {
	n := int64(m.N)
	s := shape{workload: m.Workload, n: m.N, iters: 1, align: 1}
	switch m.Workload {
	case WorkloadGEMM:
		// C = A x B: B stays resident; A and C stream through in row strips.
		s.files = []fileSpec{{"A", 4 * n * n}, {"B", 4 * n * n}, {"C", 4 * n * n}}
		s.resident = []bufSpec{{4 * n, 1, noFile}}
		s.strip = []bufSpec{{4 * n, 0, noFile}, {4 * n, noFile, 2}}
		s.align, s.out = gemm.TileDim, 2
		s.WorkBytes = 3 * 4 * n * n
		s.inputs, s.leaf = denseInputs, gemmLeaf
	case WorkloadSpMV:
		// y = A x: x and y stay resident; CSR row chunks stream through.
		// The matrix file is sized by the uniform expectation spmvAvgNNZ
		// per row, which the serve generator also produces; its staged
		// bytes drive timing while the functional kernel reads the host CSR.
		s.files = []fileSpec{{"M", n * spmvRowBytes}, {"x", 4 * n}, {"y", 4 * n}}
		s.resident = []bufSpec{{4, 1, noFile}, {4, noFile, 2}}
		s.strip = []bufSpec{{spmvRowBytes, 0, noFile}}
		s.out = 2
		s.WorkBytes = 2*4*n + n*spmvRowBytes
		s.inputs, s.leaf = spmvInputs, spmvLeaf
	case WorkloadHotSpot:
		// The grid streams through staging in bands every iteration: the
		// temperature band in and out, and its power band.
		s.files = []fileSpec{{"T", 4 * n * n}, {"P", 4 * n * n}}
		s.strip = []bufSpec{{4 * n, 0, noFile}, {4 * n, noFile, 0}, {4 * n, 1, noFile}}
		s.align, s.iters = hotspot.BlockDim, m.Iters
		// Not the staged traffic (iters·3·4n²): this is the cost every
		// serve number has been measured with.
		s.WorkBytes = int64(m.Iters)*2*4*n*n + 4*n*n
		s.inputs, s.leaf = denseInputs, hotspotLeaf
	case WorkloadSort:
		// One in-place run at a time (the sorted-runs pass of the paper's
		// out-of-core sort), written back as an independent sorted run.
		s.files = []fileSpec{{"keys", 4 * n}, {"runs", 4 * n}}
		s.strip = []bufSpec{{4, 0, 1}}
		s.out = 1
		s.WorkBytes = 2 * 4 * n
		s.inputs, s.leaf = sortInputs, sortLeaf
	default:
		panic(fmt.Sprintf("serve: no shape for workload %q", m.Workload))
	}
	return s
}

// jobPlan is a mix entry's shape sized against its tenant's quota. New
// makes one per (tenant, mix entry), since it depends on nothing else;
// admission only looks it up.
type jobPlan struct {
	shape
	// Footprint is the job's peak staging-memory demand in bytes: what the
	// quota admits and what dispatch holds as in-flight while it runs.
	Footprint int64
	// Strip is the rows (keys, for sort) per strip that achieve the
	// footprint.
	Strip int
	// reject is the admission reject reason, "" when the job fits.
	reject string
}

// planJob sizes a shape against a tenant quota. The divide-and-conquer
// chunking adapts to the quota exactly like the paper's runtime adapts to a
// level's capacity — a smaller quota means thinner strips, not failure —
// until even the minimum strip no longer fits, at which point the plan
// rejects: rejectQuota for a resident set that can never fit,
// rejectMinStrip for a minimum strip that does not fit beside it.
func planJob(s shape, quota int64) jobPlan {
	var resident, perRow int64
	for _, b := range s.resident {
		resident += int64(s.n) * b.perRow
	}
	for _, b := range s.strip {
		perRow += b.perRow
	}
	p := jobPlan{shape: s, Strip: chunkRows(quota-resident, perRow, s.n, s.align)}
	switch {
	case resident > quota:
		p.reject = rejectQuota
	case p.Strip < s.align:
		p.reject = rejectMinStrip
	default:
		p.Footprint = resident + int64(p.Strip)*perRow
	}
	return p
}

// chunkRows returns the largest row count, a multiple of align and at most
// max, whose cost fits the budget. Returns 0 when even align rows don't fit.
func chunkRows(budget, costPerRow int64, max, align int) int {
	if budget < 0 || costPerRow <= 0 {
		return 0
	}
	rows := budget / costPerRow
	if rows > int64(max) {
		rows = int64(max)
	}
	rows -= rows % int64(align)
	return int(rows)
}

// name builds a per-job-unique simulated file name: CreateInput requires
// distinct names, and several jobs share one storage node.
func (jb *job) name(part string) string {
	return fmt.Sprintf("%s-j%04d-%s", jb.tenant, jb.id, part)
}

// run is every job's root task, driven by its shape: it creates the
// files, allocates and loads each resident buffer in turn, runs every
// strip of every iteration, stores the resident results and hashes the
// output file.
func (jb *job) run(c *core.Ctx, e *Engine) (uint64, error) {
	s := &jb.plan.shape
	rt := c.Runtime()
	var data [3][]byte
	if !rt.Phantom() {
		data = s.inputs(jb)
	}
	nf, nr := 0, 0
	defer func() {
		release(c, jb.res[:nr])
		release(c, jb.files[:nf])
	}()
	for ; nf < len(s.files); nf++ {
		f, err := rt.CreateInput(c.Node(), jb.name(s.files[nf].part), s.files[nf].bytes, data[nf])
		if err != nil {
			return 0, err
		}
		jb.files[nf] = f
	}
	for _, b := range s.resident {
		buf, err := c.AllocAt(e.dram, int64(s.n)*b.perRow)
		if err != nil {
			return 0, err
		}
		jb.res[nr] = buf
		nr++
		if err := jb.load(c, b, buf, 0, s.n); err != nil {
			return 0, err
		}
	}
	for it := 0; it < s.iters; it++ {
		for r0 := 0; r0 < s.n; r0 += jb.plan.Strip {
			if err := jb.runStrip(c, e, r0, min(jb.plan.Strip, s.n-r0)); err != nil {
				return 0, err
			}
		}
	}
	if err := jb.store(c, s.resident, jb.res[:], 0, s.n); err != nil {
		return 0, err
	}
	return fileHash(jb.files[s.out]), nil
}

// runStrip allocates the strip buffers in order, loads them, runs the
// leaf at the staging node, stores the results and releases the buffers
// in reverse order.
func (jb *job) runStrip(c *core.Ctx, e *Engine, r0, rows int) error {
	s := &jb.plan.shape
	nb := 0
	defer func() { release(c, jb.buf[:nb]) }()
	for ; nb < len(s.strip); nb++ {
		buf, err := c.AllocAt(e.dram, int64(rows)*s.strip[nb].perRow)
		if err != nil {
			return err
		}
		jb.buf[nb] = buf
	}
	for i, b := range s.strip {
		if err := jb.load(c, b, jb.buf[i], r0, rows); err != nil {
			return err
		}
	}
	if err := c.Descend(e.dram, func(lc *core.Ctx) error { return s.leaf(lc, jb, r0, rows) }); err != nil {
		return err
	}
	return jb.store(c, s.strip, jb.buf[:], r0, rows)
}

// load fills buf with rows [r0, r0+rows) of its source file, if it has one.
func (jb *job) load(c *core.Ctx, b bufSpec, buf *core.Buffer, r0, rows int) error {
	if b.from == noFile {
		return nil
	}
	return c.MoveDataDown(buf, jb.files[b.from], 0, int64(r0)*b.perRow, int64(rows)*b.perRow)
}

// store writes each buffer that has a target file back to rows [r0,
// r0+rows) of it, inside the journey's merge marks.
func (jb *job) store(c *core.Ctx, specs []bufSpec, bufs []*core.Buffer, r0, rows int) error {
	for i, b := range specs {
		if b.to == noFile {
			continue
		}
		jb.jny.Mark(journey.PhaseMerge)
		err := c.MoveDataUp(jb.files[b.to], bufs[i], int64(r0)*b.perRow, 0, int64(rows)*b.perRow)
		jb.jny.Mark("")
		if err != nil {
			return err
		}
	}
	return nil
}

// release frees bufs in reverse order.
func release(c *core.Ctx, bufs []*core.Buffer) {
	for i := len(bufs) - 1; i >= 0; i-- {
		c.Release(bufs[i])
	}
}

// fileHash fingerprints a simulated output file (FNV-1a over its logical
// content) outside simulated time. Phantom runs hash an unwritten file,
// which reads as zeros — still deterministic; storage.File.Hash digests
// the zero tail in closed form, so the cost follows the stored bytes.
func fileHash(b *core.Buffer) uint64 {
	f := b.File()
	if f == nil {
		return 0
	}
	h, err := f.Hash()
	if err != nil {
		return 0
	}
	return h
}

// denseInputs is GEMM's A and B, or HotSpot's temperature and power: two
// dense n x n inputs seeded seed and seed+1.
func denseInputs(jb *job) [3][]byte {
	n := jb.plan.n
	return [3][]byte{view.F32Bytes(workload.Dense(n, n, jb.seed)), view.F32Bytes(workload.Dense(n, n, jb.seed+1))}
}

// gemmLeaf multiplies the strip of A by the resident B into the strip of C.
func gemmLeaf(lc *core.Ctx, jb *job, _, rows int) error {
	n := jb.plan.n
	var C, A, B []float32
	if !lc.Runtime().Phantom() {
		C, A, B = view.F32(jb.buf[1].Bytes()), view.F32(jb.buf[0].Bytes()), view.F32(jb.res[0].Bytes())
	}
	kern, groups := gemm.TileKernel(C, A, B, rows, n, n, false)
	_, err := lc.LaunchKernel(kern, groups)
	return err
}

// spmvInputs builds the host CSR matrix and the x vector.
func spmvInputs(jb *job) [3][]byte {
	n := jb.plan.n
	jb.csr = workload.Sparse(workload.SparseUniform, n, spmvAvgNNZ, jb.seed)
	return [3][]byte{1: view.F32Bytes(workload.Vector(n, jb.seed+1))}
}

// spmvLeaf multiplies rows [r0, r0+rows) of the host CSR by the resident x
// into the resident y, on the CPU.
func spmvLeaf(lc *core.Ctx, jb *job, r0, rows int) error {
	var fn func()
	if !lc.Runtime().Phantom() {
		csr, x, y := jb.csr, view.F32(jb.res[0].Bytes()), view.F32(jb.res[1].Bytes())
		fn = func() {
			for r := r0; r < r0+rows; r++ {
				var sum float32
				for k := csr.RowPtr[r]; k < csr.RowPtr[r+1]; k++ {
					sum += csr.Val[k] * x[csr.ColIdx[k]]
				}
				y[r] = sum
			}
		}
	}
	chunkBytes := int64(rows) * spmvRowBytes
	_, err := lc.RunCPUParallel(2*float64(rows*spmvAvgNNZ), float64(chunkBytes)+2*4*float64(rows), fn)
	return err
}

// hotspotLeaf runs one in-band Jacobi sweep: hotspot's roofline costs,
// and functionally a 5-point step over the band with clamped edges. Band
// edges are treated as boundary rows — a per-job simplification that keeps
// each band independent (and therefore quota-bounded).
func hotspotLeaf(lc *core.Ctx, jb *job, _, rows int) error {
	n := jb.plan.n
	k := gpu.Kernel{
		Name:          "serve-hotspot-band",
		FlopsPerGroup: hotspot.TileFlops,
		BytesPerGroup: hotspot.TileBytes,
		LocalBytes:    4 * (hotspot.BlockDim + 2) * (hotspot.BlockDim + 2),
	}
	if !lc.Runtime().Phantom() {
		in, out, pow := view.F32(jb.buf[0].Bytes()), view.F32(jb.buf[1].Bytes()), view.F32(jb.buf[2].Bytes())
		tilesX := n / hotspot.BlockDim
		at := func(i, j int) float32 {
			if i < 0 {
				i = 0
			}
			if i >= rows {
				i = rows - 1
			}
			if j < 0 {
				j = 0
			}
			if j >= n {
				j = n - 1
			}
			return in[i*n+j]
		}
		k.Run = func(group int) {
			ty, tx := group/tilesX, group%tilesX
			for i := ty * hotspot.BlockDim; i < (ty+1)*hotspot.BlockDim; i++ {
				for j := tx * hotspot.BlockDim; j < (tx+1)*hotspot.BlockDim; j++ {
					center := in[i*n+j]
					out[i*n+j] = center + float32(0.1)*(at(i-1, j)+at(i+1, j)+at(i, j-1)+at(i, j+1)-4*center) +
						float32(0.05)*pow[i*n+j]
				}
			}
		}
	}
	_, err := lc.LaunchKernel(k, (rows/hotspot.BlockDim)*(n/hotspot.BlockDim))
	return err
}

// sortInputs draws the keys.
func sortInputs(jb *job) [3][]byte {
	return [3][]byte{view.F32Bytes(oocsort.Keys(jb.plan.n, jb.seed))}
}

// sortLeaf sorts the strip's keys in place on the CPU.
func sortLeaf(lc *core.Ctx, jb *job, _, keys int) error {
	b := jb.buf[0]
	var fn func()
	if !lc.Runtime().Phantom() {
		fn = func() {
			v := view.F32(b.Bytes())
			sort.Slice(v, func(i, j int) bool { return v[i] < v[j] })
		}
	}
	_, err := lc.RunCPUParallel(float64(keys)*math.Log2(float64(keys)+2), 2*float64(int64(keys)*4), fn)
	return err
}
