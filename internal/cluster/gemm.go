package cluster

import (
	"fmt"

	"repro/internal/apps/gemm"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/view"
	"repro/internal/workload"
)

// DistributedGEMM computes C = A·B across the cluster: C's rows are
// partitioned over machines, A row-strips are scattered, B is broadcast,
// every machine runs the single-node out-of-core GEMM schedule on its
// strip (gemm.RunRows), and the C strips are gathered back — the classic
// 1-D decomposition, with each machine interpreting the app's own
// schedule.

// GEMMConfig parameterizes a distributed multiply.
type GEMMConfig struct {
	// N is the (square) matrix dimension; it must divide evenly by the
	// machine count times gemm.TileDim.
	N    int
	Seed int64
	// ShardDim forces the blocking every machine stages (0 = auto from the
	// smallest machine's staging capacity). It must divide the strip of
	// N/machines rows.
	ShardDim int
}

// GEMMResult reports the distributed run.
type GEMMResult struct {
	// C is the assembled row-major product on the root machine (nil in
	// phantom mode).
	C []float32
	// Elapsed is the total virtual time, input distribution and result
	// gathering included.
	Elapsed sim.Time
	// DistributionTime covers scatter+broadcast; GatherTime the collect.
	DistributionTime, GatherTime sim.Time
	// ComputeTime is the span of the parallel local-compute phase.
	ComputeTime sim.Time
}

// DistributedGEMM runs the decomposition. Machine trees must be
// storage-rooted with a single staging child (the APU/NVM shapes).
func DistributedGEMM(cl *Cluster, cfg GEMMConfig) (*GEMMResult, error) {
	k := cl.Size()
	n := cfg.N
	if n <= 0 || n%(k*gemm.TileDim) != 0 {
		return nil, fmt.Errorf("cluster: N=%d must be a positive multiple of machines*%d", n, gemm.TileDim)
	}
	rows := n / k // C rows per machine
	elems := int64(n) * int64(n)
	stripBytes := int64(rows) * int64(n) * 4

	// One shard size for every machine, from the smallest staging level:
	// the strips then hold whole block rows, so the gathered C file is
	// GEMM's block-major layout and B is presharded once for all.
	minFree := int64(1) << 62
	for i := 0; i < k; i++ {
		staging, err := cl.Machine(i).Tree.StagingChild()
		if err != nil {
			return nil, fmt.Errorf("cluster: machine %d: %w", i, err)
		}
		minFree = min(minFree, staging.Mem.Free())
	}
	gcfg := gemm.Config{N: n, Seed: cfg.Seed, ShardDim: cfg.ShardDim}
	s, err := gemm.ChooseShardDim(gcfg, rows, minFree)
	if err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	gcfg.ShardDim = s

	// Root-machine inputs.
	root := cl.Machine(0)
	functional := !root.RT.Phantom()
	var aData, bPre []float32
	if functional {
		aData = workload.Dense(n, n, cfg.Seed)
		bPre = view.ToTiles(workload.Dense(n, n, cfg.Seed+1), n, n, n, s)
	}
	rootTree := root.Tree.Root()
	fA, err := root.RT.CreateInput(rootTree, "dist-A", elems*4, view.F32Bytes(aData))
	if err != nil {
		return nil, err
	}
	fB, err := root.RT.CreateInput(rootTree, "dist-B", elems*4, view.F32Bytes(bPre))
	if err != nil {
		return nil, err
	}
	fC, err := root.RT.CreateInput(rootTree, "dist-C", elems*4, nil)
	if err != nil {
		return nil, err
	}

	// Per-machine local files.
	aStrips := make([]*core.Buffer, k)
	bLocal := make([]*core.Buffer, k)
	cStrips := make([]*core.Buffer, k)
	for i := 0; i < k; i++ {
		m := cl.Machine(i)
		mr := m.Tree.Root()
		if aStrips[i], err = m.RT.CreateInput(mr, "dist-a-strip", stripBytes, nil); err != nil {
			return nil, err
		}
		if bLocal[i], err = m.RT.CreateInput(mr, "dist-b-local", elems*4, nil); err != nil {
			return nil, err
		}
		if cStrips[i], err = m.RT.CreateInput(mr, "dist-c-strip", stripBytes, nil); err != nil {
			return nil, err
		}
	}

	res := &GEMMResult{}

	elapsed, err := cl.Run("dist-gemm", func(p *sim.Proc) error {
		t0 := p.Now()
		// Distribute: scatter A strips (machine 0's slice stays in fA),
		// broadcast the presharded B.
		if err := cl.Scatter(p, 0, fA, aStrips, stripBytes); err != nil {
			return err
		}
		if err := cl.Broadcast(p, 0, fB, bLocal); err != nil {
			return err
		}
		res.DistributionTime = p.Now() - t0

		// Parallel local computation.
		t1 := p.Now()
		joins := make([]*core.Join, k)
		for i := 0; i < k; i++ {
			i := i
			m := cl.Machine(i)
			b := bLocal[i]
			if i == 0 {
				b = fB // root computes from its original copy
			}
			joins[i] = m.RT.Start(fmt.Sprintf("machine%d", i), func(c *core.Ctx) error {
				return gemm.RunRows(c, gcfg, rows/s, aStrips[i], b, cStrips[i])
			})
		}
		for _, j := range joins {
			if err := j.WaitOn(p); err != nil {
				return err
			}
		}
		res.ComputeTime = p.Now() - t1

		// Gather the C strips.
		t2 := p.Now()
		if err := cl.Gather(p, 0, cStrips, fC, stripBytes); err != nil {
			return err
		}
		res.GatherTime = p.Now() - t2
		return nil
	})
	if err != nil {
		return nil, err
	}
	res.Elapsed = elapsed

	if functional {
		blocks := make([]float32, elems)
		if err := fC.File().Peek(view.F32Bytes(blocks), 0); err != nil {
			return nil, err
		}
		res.C = view.FromTiles(blocks, n, n, s, s)
	}
	return res, nil
}
