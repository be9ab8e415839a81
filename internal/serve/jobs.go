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
	mix    MixEntry
	seed   int64 // input-data seed, drawn from the tenant's arrival RNG
	arrive sim.Time
	plan   jobPlan
	// jny is the job's journey, nil when journeys are off or the job was
	// not sampled. journey.Job methods are nil-safe where bodies call them.
	jny *journey.Job
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

// jobPlan is the admission-time sizing of a job against its tenant's quota.
type jobPlan struct {
	// Footprint is the job's peak staging-memory demand in bytes: what the
	// quota admits and what dispatch holds as in-flight while it runs.
	Footprint int64
	// WorkBytes is the job's weighted-fair-queueing cost — the bytes it
	// stages through the memory hierarchy.
	WorkBytes int64
	// Strip is the workload-specific chunking (rows or keys per piece)
	// that achieves the footprint.
	Strip int
}

// name builds a per-job-unique simulated file name: CreateInput requires
// distinct names, and several jobs share one storage node.
func (jb *job) name(part string) string {
	return fmt.Sprintf("%s-j%04d-%s", jb.tenant, jb.id, part)
}

// planJob sizes a mix entry's working set against a tenant quota. The
// divide-and-conquer chunking adapts to the quota exactly like the paper's
// runtime adapts to a level's capacity — a smaller quota means thinner
// strips, not failure — until even the minimum strip no longer fits, at
// which point the job is rejected. On rejection the returned reason
// distinguishes a resident set that can never fit (rejectQuota) from a
// minimum strip that does not fit beside it (rejectMinStrip).
func planJob(m MixEntry, quota int64) (jobPlan, string, error) {
	n64 := int64(m.N)
	switch m.Workload {
	case WorkloadGEMM:
		// B stays resident; A and C stream through in row strips.
		resident := 4 * n64 * n64
		stripCost := 2 * 4 * n64 // bytes per strip row (one A row + one C row)
		s := chunkRows(quota-resident, stripCost, m.N, gemm.TileDim)
		if s < gemm.TileDim {
			reason := rejectMinStrip
			if resident > quota {
				reason = rejectQuota
			}
			return jobPlan{}, reason, fmt.Errorf("gemm n=%d needs %d B for its minimum working set", m.N,
				resident+int64(gemm.TileDim)*stripCost)
		}
		return jobPlan{
			Footprint: resident + int64(s)*stripCost,
			WorkBytes: 3 * 4 * n64 * n64,
			Strip:     s,
		}, "", nil
	case WorkloadSpMV:
		// x and y stay resident; CSR row chunks stream through. Sizing uses
		// the uniform expectation avgNNZ per row, which the serve generator
		// also produces.
		resident := 2 * 4 * n64
		rowCost := int64(spmvAvgNNZ) * 8 // 4 B column index + 4 B value
		c := chunkRows(quota-resident, rowCost, m.N, 1)
		if c < 1 {
			reason := rejectMinStrip
			if resident > quota {
				reason = rejectQuota
			}
			return jobPlan{}, reason, fmt.Errorf("spmv n=%d needs %d B for its minimum working set", m.N,
				resident+rowCost)
		}
		return jobPlan{
			Footprint: resident + int64(c)*rowCost,
			WorkBytes: resident + n64*rowCost,
			Strip:     c,
		}, "", nil
	case WorkloadHotSpot:
		// Double-buffered temperature band plus its power band.
		bandCost := 3 * 4 * n64 // bytes per band row (temp in, temp out, power)
		c := chunkRows(quota, bandCost, m.N, hotspot.BlockDim)
		if c < hotspot.BlockDim {
			return jobPlan{}, rejectMinStrip, fmt.Errorf("hotspot n=%d needs %d B for its minimum working set", m.N,
				int64(hotspot.BlockDim)*bandCost)
		}
		return jobPlan{
			Footprint: int64(c) * bandCost,
			WorkBytes: int64(m.Iters)*2*4*n64*n64 + 4*n64*n64,
			Strip:     c,
		}, "", nil
	case WorkloadSort:
		// One in-place run at a time (the sorted-runs pass of the paper's
		// out-of-core sort).
		c := chunkRows(quota, 4, m.N, 1)
		if c < 1 {
			return jobPlan{}, rejectMinStrip, fmt.Errorf("sort n=%d needs at least 4 B of quota", m.N)
		}
		return jobPlan{
			Footprint: int64(c) * 4,
			WorkBytes: 2 * 4 * n64,
			Strip:     c,
		}, "", nil
	default:
		return jobPlan{}, rejectQuota, fmt.Errorf("unknown workload %q", m.Workload)
	}
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

// body returns the job's root-task function for the shared runtime.
func (jb *job) body(e *Engine) func(*core.Ctx) (uint64, error) {
	switch jb.mix.Workload {
	case WorkloadGEMM:
		return jb.gemmBody(e)
	case WorkloadSpMV:
		return jb.spmvBody(e)
	case WorkloadHotSpot:
		return jb.hotspotBody(e)
	case WorkloadSort:
		return jb.sortBody(e)
	default:
		return func(*core.Ctx) (uint64, error) {
			return 0, fmt.Errorf("serve: unknown workload %q", jb.mix.Workload)
		}
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

// gemmBody computes C = A x B with B resident in the tenant's staging
// allowance and A/C streamed in row strips of plan.Strip rows.
func (jb *job) gemmBody(e *Engine) func(*core.Ctx) (uint64, error) {
	n := jb.mix.N
	return func(c *core.Ctx) (uint64, error) {
		rt := c.Runtime()
		matBytes := int64(n) * int64(n) * 4
		var aData, bData []byte
		if !rt.Phantom() {
			aData = view.F32Bytes(workload.Dense(n, n, jb.seed))
			bData = view.F32Bytes(workload.Dense(n, n, jb.seed+1))
		}
		fA, err := rt.CreateInput(c.Node(), jb.name("A"), matBytes, aData)
		if err != nil {
			return 0, err
		}
		defer c.Release(fA)
		fB, err := rt.CreateInput(c.Node(), jb.name("B"), matBytes, bData)
		if err != nil {
			return 0, err
		}
		defer c.Release(fB)
		fC, err := rt.CreateInput(c.Node(), jb.name("C"), matBytes, nil)
		if err != nil {
			return 0, err
		}
		defer c.Release(fC)

		err = func() error {
			bB, err := c.AllocAt(e.dram, matBytes)
			if err != nil {
				return err
			}
			defer c.Release(bB)
			if err := c.MoveDataDown(bB, fB, 0, 0, matBytes); err != nil {
				return err
			}
			for r0 := 0; r0 < n; r0 += jb.plan.Strip {
				rows := jb.plan.Strip
				if n-r0 < rows {
					rows = n - r0
				}
				stripBytes := int64(rows) * int64(n) * 4
				stripOff := int64(r0) * int64(n) * 4
				bA, err := c.AllocAt(e.dram, stripBytes)
				if err != nil {
					return err
				}
				bC, err := c.AllocAt(e.dram, stripBytes)
				if err != nil {
					c.Release(bA)
					return err
				}
				err = func() error {
					if err := c.MoveDataDown(bA, fA, 0, stripOff, stripBytes); err != nil {
						return err
					}
					var Cv, Av, Bv []float32
					if !rt.Phantom() {
						Cv, Av, Bv = view.F32(bC.Bytes()), view.F32(bA.Bytes()), view.F32(bB.Bytes())
					}
					kern, groups := gemm.TileKernel(Cv, Av, Bv, rows, n, n, false)
					if err := c.Descend(e.dram, func(lc *core.Ctx) error {
						_, kerr := lc.LaunchKernel(kern, groups)
						return kerr
					}); err != nil {
						return err
					}
					jb.jny.Mark(journey.PhaseMerge)
					uerr := c.MoveDataUp(fC, bC, stripOff, 0, stripBytes)
					jb.jny.Mark("")
					return uerr
				}()
				c.Release(bC)
				c.Release(bA)
				if err != nil {
					return err
				}
			}
			return nil
		}()
		if err != nil {
			return 0, err
		}
		return fileHash(fC), nil
	}
}

// spmvBody computes y = A x for a uniform CSR matrix, x and y resident,
// row chunks of plan.Strip rows streamed through staging.
func (jb *job) spmvBody(e *Engine) func(*core.Ctx) (uint64, error) {
	n := jb.mix.N
	return func(c *core.Ctx) (uint64, error) {
		rt := c.Runtime()
		vecBytes := int64(n) * 4
		rowCost := int64(spmvAvgNNZ) * 8
		var csr *workload.CSR
		var xv []float32
		var xData []byte
		if !rt.Phantom() {
			csr = workload.Sparse(workload.SparseUniform, n, spmvAvgNNZ, jb.seed)
			xv = workload.Vector(n, jb.seed+1)
			xData = view.F32Bytes(xv)
		}
		// The matrix file is sized by the uniform expectation; its staged
		// bytes drive timing while the functional kernel reads the host CSR.
		fM, err := rt.CreateInput(c.Node(), jb.name("M"), int64(n)*rowCost, nil)
		if err != nil {
			return 0, err
		}
		defer c.Release(fM)
		fX, err := rt.CreateInput(c.Node(), jb.name("x"), vecBytes, xData)
		if err != nil {
			return 0, err
		}
		defer c.Release(fX)
		fY, err := rt.CreateInput(c.Node(), jb.name("y"), vecBytes, nil)
		if err != nil {
			return 0, err
		}
		defer c.Release(fY)

		err = func() error {
			bX, err := c.AllocAt(e.dram, vecBytes)
			if err != nil {
				return err
			}
			defer c.Release(bX)
			if err := c.MoveDataDown(bX, fX, 0, 0, vecBytes); err != nil {
				return err
			}
			bY, err := c.AllocAt(e.dram, vecBytes)
			if err != nil {
				return err
			}
			defer c.Release(bY)
			var yv []float32
			if !rt.Phantom() {
				yv = view.F32(bY.Bytes())
			}
			for r0 := 0; r0 < n; r0 += jb.plan.Strip {
				rows := jb.plan.Strip
				if n-r0 < rows {
					rows = n - r0
				}
				chunkBytes := int64(rows) * rowCost
				bRows, err := c.AllocAt(e.dram, chunkBytes)
				if err != nil {
					return err
				}
				err = func() error {
					if err := c.MoveDataDown(bRows, fM, 0, int64(r0)*rowCost, chunkBytes); err != nil {
						return err
					}
					nnz := rows * spmvAvgNNZ
					r0, rows := r0, rows
					var fn func()
					if !rt.Phantom() {
						fn = func() {
							for r := r0; r < r0+rows; r++ {
								var sum float32
								for k := csr.RowPtr[r]; k < csr.RowPtr[r+1]; k++ {
									sum += csr.Val[k] * xv[csr.ColIdx[k]]
								}
								yv[r] = sum
							}
						}
					}
					return c.Descend(e.dram, func(lc *core.Ctx) error {
						_, cerr := lc.RunCPUParallel(2*float64(nnz), float64(chunkBytes)+2*4*float64(rows), fn)
						return cerr
					})
				}()
				c.Release(bRows)
				if err != nil {
					return err
				}
			}
			jb.jny.Mark(journey.PhaseMerge)
			uerr := c.MoveDataUp(fY, bY, 0, 0, vecBytes)
			jb.jny.Mark("")
			return uerr
		}()
		if err != nil {
			return 0, err
		}
		return fileHash(fY), nil
	}
}

// hotspotBody runs the thermal stencil with an in-band Jacobi sweep: the
// grid streams through staging in bands of plan.Strip rows per iteration.
// Band edges are treated as boundary rows — a per-job simplification that
// keeps each band independent (and therefore quota-bounded).
func (jb *job) hotspotBody(e *Engine) func(*core.Ctx) (uint64, error) {
	n := jb.mix.N
	return func(c *core.Ctx) (uint64, error) {
		rt := c.Runtime()
		gridBytes := int64(n) * int64(n) * 4
		kernName := jb.name("hs") // one name for every band of every iteration
		var tempData, powerData []byte
		if !rt.Phantom() {
			tempData = view.F32Bytes(workload.Dense(n, n, jb.seed))
			powerData = view.F32Bytes(workload.Dense(n, n, jb.seed+1))
		}
		fT, err := rt.CreateInput(c.Node(), jb.name("T"), gridBytes, tempData)
		if err != nil {
			return 0, err
		}
		defer c.Release(fT)
		fP, err := rt.CreateInput(c.Node(), jb.name("P"), gridBytes, powerData)
		if err != nil {
			return 0, err
		}
		defer c.Release(fP)

		err = func() error {
			for iter := 0; iter < jb.mix.Iters; iter++ {
				for r0 := 0; r0 < n; r0 += jb.plan.Strip {
					rows := jb.plan.Strip
					if n-r0 < rows {
						rows = n - r0
					}
					bandBytes := int64(rows) * int64(n) * 4
					bandOff := int64(r0) * int64(n) * 4
					bIn, err := c.AllocAt(e.dram, bandBytes)
					if err != nil {
						return err
					}
					bOut, err := c.AllocAt(e.dram, bandBytes)
					if err != nil {
						c.Release(bIn)
						return err
					}
					bPow, err := c.AllocAt(e.dram, bandBytes)
					if err != nil {
						c.Release(bOut)
						c.Release(bIn)
						return err
					}
					err = func() error {
						if err := c.MoveDataDown(bIn, fT, 0, bandOff, bandBytes); err != nil {
							return err
						}
						if err := c.MoveDataDown(bPow, fP, 0, bandOff, bandBytes); err != nil {
							return err
						}
						kern := bandKernel(kernName, rt.Phantom(), bIn, bOut, bPow, rows, n)
						groups := (rows / hotspot.BlockDim) * (n / hotspot.BlockDim)
						if err := c.Descend(e.dram, func(lc *core.Ctx) error {
							_, kerr := lc.LaunchKernel(kern, groups)
							return kerr
						}); err != nil {
							return err
						}
						jb.jny.Mark(journey.PhaseMerge)
						uerr := c.MoveDataUp(fT, bOut, bandOff, 0, bandBytes)
						jb.jny.Mark("")
						return uerr
					}()
					c.Release(bPow)
					c.Release(bOut)
					c.Release(bIn)
					if err != nil {
						return err
					}
				}
			}
			return nil
		}()
		if err != nil {
			return 0, err
		}
		return fileHash(fT), nil
	}
}

// bandKernel builds the per-band stencil kernel: hotspot's roofline costs,
// and functionally a 5-point Jacobi step over the band with clamped edges.
func bandKernel(name string, phantom bool, bIn, bOut, bPow *core.Buffer, rows, n int) gpu.Kernel {
	k := gpu.Kernel{
		Name:          name,
		FlopsPerGroup: hotspot.TileFlops,
		BytesPerGroup: hotspot.TileBytes,
		LocalBytes:    4 * (hotspot.BlockDim + 2) * (hotspot.BlockDim + 2),
	}
	if phantom {
		return k
	}
	in, out, pow := view.F32(bIn.Bytes()), view.F32(bOut.Bytes()), view.F32(bPow.Bytes())
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
	return k
}

// sortBody runs the sorted-runs pass of an out-of-core sort: chunks of
// plan.Strip keys are staged, sorted on the CPU, and written back as
// independent sorted runs.
func (jb *job) sortBody(e *Engine) func(*core.Ctx) (uint64, error) {
	n := jb.mix.N
	return func(c *core.Ctx) (uint64, error) {
		rt := c.Runtime()
		keysBytes := int64(n) * 4
		var inData []byte
		if !rt.Phantom() {
			inData = view.F32Bytes(oocsort.Keys(n, jb.seed))
		}
		fIn, err := rt.CreateInput(c.Node(), jb.name("keys"), keysBytes, inData)
		if err != nil {
			return 0, err
		}
		defer c.Release(fIn)
		fOut, err := rt.CreateInput(c.Node(), jb.name("runs"), keysBytes, nil)
		if err != nil {
			return 0, err
		}
		defer c.Release(fOut)

		err = func() error {
			for k0 := 0; k0 < n; k0 += jb.plan.Strip {
				keys := jb.plan.Strip
				if n-k0 < keys {
					keys = n - k0
				}
				chunkBytes := int64(keys) * 4
				chunkOff := int64(k0) * 4
				b, err := c.AllocAt(e.dram, chunkBytes)
				if err != nil {
					return err
				}
				err = func() error {
					if err := c.MoveDataDown(b, fIn, 0, chunkOff, chunkBytes); err != nil {
						return err
					}
					flops := float64(keys) * math.Log2(float64(keys)+2)
					var fn func()
					if !rt.Phantom() {
						fn = func() {
							v := view.F32(b.Bytes())
							sort.Slice(v, func(i, j int) bool { return v[i] < v[j] })
						}
					}
					if err := c.Descend(e.dram, func(lc *core.Ctx) error {
						_, cerr := lc.RunCPUParallel(flops, 2*float64(chunkBytes), fn)
						return cerr
					}); err != nil {
						return err
					}
					jb.jny.Mark(journey.PhaseMerge)
					uerr := c.MoveDataUp(fOut, b, chunkOff, 0, chunkBytes)
					jb.jny.Mark("")
					return uerr
				}()
				c.Release(b)
				if err != nil {
					return err
				}
			}
			return nil
		}()
		if err != nil {
			return 0, err
		}
		return fileHash(fOut), nil
	}
}
