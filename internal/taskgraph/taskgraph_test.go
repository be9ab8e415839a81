package taskgraph

import (
	"errors"
	"fmt"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/topo"
)

// newStagedRuntime builds a 2-level SSD+DRAM tree with the staging cache on.
func newStagedRuntime(cacheMiB int64) (*core.Runtime, *topo.Node) {
	e := sim.NewEngine()
	tree := topo.APU(e, topo.APUConfig{Storage: topo.SSD, StorageMiB: 64, DRAMMiB: 8, WithCPU: true})
	opts := core.DefaultOptions()
	opts.Phantom = true
	if cacheMiB > 0 {
		opts.Cache.Enabled = true
		opts.Cache.CapacityBytes = cacheMiB << 20
	}
	rt := core.NewRuntime(e, tree, opts)
	return rt, tree.Root().Children[0]
}

func extentTask(name string, reads, writes []Extent, order *[]string) *Task {
	return &Task{
		Name:   name,
		Reads:  reads,
		Writes: writes,
		Cost:   1,
		Run: func(c *core.Ctx) error {
			*order = append(*order, name)
			return nil
		},
	}
}

func TestDependencyInference(t *testing.T) {
	rt, _ := newStagedRuntime(0)
	var fa, fb *core.Buffer
	_, err := rt.Run("setup", func(c *core.Ctx) error {
		var err error
		if fa, err = c.Alloc(4096); err != nil {
			return err
		}
		fb, err = c.Alloc(4096)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}

	g := New()
	var order []string
	w := g.Add(extentTask("writer", nil, []Extent{{fa, 0, 1024}}, &order))
	raw := g.Add(extentTask("raw", []Extent{{fa, 512, 512}}, nil, &order))
	waw := g.Add(extentTask("waw", nil, []Extent{{fa, 0, 256}}, &order))
	war := g.Add(extentTask("war", nil, []Extent{{fa, 768, 512}}, &order)) // WAR on raw's read
	free := g.Add(extentTask("free", []Extent{{fb, 0, 1024}}, nil, &order))
	rr := g.Add(extentTask("rr", []Extent{{fb, 0, 1024}}, nil, &order)) // read-read: no edge
	// Extents of no bytes touch nothing, even strictly inside another.
	zw := g.Add(extentTask("zero-write", nil, []Extent{{fb, 512, 0}}, &order))
	zr := g.Add(extentTask("zero-read", []Extent{{fa, 128, 0}}, nil, &order))

	if w.nblock != 0 || raw.nblock != 1 || waw.nblock != 1 {
		t.Fatalf("RAW/WAW inference wrong: %d %d %d", w.nblock, raw.nblock, waw.nblock)
	}
	// war overlaps writer's write (WAW) and raw's read (WAR).
	if war.nblock != 2 {
		t.Fatalf("WAR inference wrong: nblock=%d", war.nblock)
	}
	if free.nblock != 0 || rr.nblock != 0 {
		t.Fatalf("read-read sharing created edges: %d %d", free.nblock, rr.nblock)
	}
	if zw.nblock != 0 || zr.nblock != 0 {
		t.Fatalf("zero-length extents created edges: write %d, read %d", zw.nblock, zr.nblock)
	}
}

func TestRunExecutesAllRespectingDeps(t *testing.T) {
	for _, affinity := range []bool{false, true} {
		rt, dram := newStagedRuntime(4)
		var buf *core.Buffer
		if _, err := rt.Run("setup", func(c *core.Ctx) error {
			var err error
			buf, err = c.Alloc(1 << 20)
			return err
		}); err != nil {
			t.Fatal(err)
		}
		g := New()
		var order []string
		const chains = 4
		for ch := 0; ch < chains; ch++ {
			ext := []Extent{{buf, int64(ch) * 1024, 1024}}
			for k := 0; k < 3; k++ {
				g.Add(extentTask(fmt.Sprintf("c%d.%d", ch, k), ext, ext, &order))
			}
		}
		_, err := rt.Run("run", func(c *core.Ctx) error {
			st, err := g.Run(c, Options{Workers: 3, Affinity: affinity, Node: dram})
			if err != nil {
				return err
			}
			if st.Tasks != chains*3 {
				return fmt.Errorf("st.Tasks=%d", st.Tasks)
			}
			if affinity && st.AffinityPicks != chains*3 {
				return fmt.Errorf("AffinityPicks=%d", st.AffinityPicks)
			}
			if !affinity && st.Pops+st.Steals != chains*3 {
				return fmt.Errorf("pops+steals=%d", st.Pops+st.Steals)
			}
			return nil
		})
		if err != nil {
			t.Fatalf("affinity=%v: %v", affinity, err)
		}
		if len(order) != chains*3 {
			t.Fatalf("affinity=%v: ran %d of %d tasks", affinity, len(order), chains*3)
		}
		// Within each chain the k-order must be preserved.
		pos := map[string]int{}
		for i, name := range order {
			pos[name] = i
		}
		for ch := 0; ch < chains; ch++ {
			for k := 1; k < 3; k++ {
				a := pos[fmt.Sprintf("c%d.%d", ch, k-1)]
				b := pos[fmt.Sprintf("c%d.%d", ch, k)]
				if a >= b {
					t.Fatalf("affinity=%v: chain %d ran out of order", affinity, ch)
				}
			}
		}
	}
}

func TestFirstErrorAborts(t *testing.T) {
	for _, affinity := range []bool{false, true} {
		rt, dram := newStagedRuntime(0)
		boom := errors.New("boom")
		g := New()
		ran := 0
		g.Add(&Task{Name: "bad", Cost: 1, Run: func(c *core.Ctx) error { return boom }})
		for i := 0; i < 8; i++ {
			i := i
			var dep []Extent
			g.Add(&Task{Name: fmt.Sprintf("t%d", i), Cost: 1, Reads: dep,
				Run: func(c *core.Ctx) error { ran++; return nil }})
		}
		_, err := rt.Run("run", func(c *core.Ctx) error {
			_, err := g.Run(c, Options{Workers: 2, Affinity: affinity, Node: dram})
			return err
		})
		if !errors.Is(err, boom) {
			t.Fatalf("affinity=%v: err=%v", affinity, err)
		}
	}
}

// placements runs a fixed random graph and returns the execution order.
func placements(t *testing.T, seed int64, affinity bool, prof *sched.ProfileScheduler) []string {
	t.Helper()
	rt, dram := newStagedRuntime(2)
	var src *core.Buffer
	if _, err := rt.Run("setup", func(c *core.Ctx) error {
		var err error
		src, err = c.Alloc(8 << 20)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	g := New()
	var order []string
	// A deterministic pseudo-random extent layout derived from the seed.
	state := uint64(seed)*2654435761 + 12345
	next := func(mod int64) int64 {
		state = state*6364136223846793005 + 1442695040888963407
		return int64(state>>33) % mod
	}
	for i := 0; i < 24; i++ {
		name := fmt.Sprintf("t%02d", i)
		off := next(7) * (1 << 20)
		ln := int64(1<<20) + next(1<<19)
		g.Add(&Task{
			Name: name, Kind: "k", Cost: float64(ln),
			Reads: []Extent{{src, off, ln}},
			Run: func(c *core.Ctx) error {
				order = append(order, name)
				return c.Descend(dram, func(dc *core.Ctx) error {
					_, err := dc.RunCPU(float64(ln), float64(ln), func() {})
					return err
				})
			},
		})
	}
	if _, err := rt.Run("run", func(c *core.Ctx) error {
		_, err := g.Run(c, Options{Workers: 3, Affinity: affinity, Node: dram, Profile: prof})
		return err
	}); err != nil {
		t.Fatal(err)
	}
	return order
}

func TestPlacementDeterministic(t *testing.T) {
	// The same graph must schedule identically across repeated runs, for
	// both policies, with and without a warm-started profile.
	f := func(seed int64) bool {
		for _, affinity := range []bool{false, true} {
			a := placements(t, seed, affinity, sched.NewProfileScheduler())
			b := placements(t, seed, affinity, sched.NewProfileScheduler())
			if !reflect.DeepEqual(a, b) {
				t.Logf("seed=%d affinity=%v: %v != %v", seed, affinity, a, b)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
		t.Fatal(err)
	}
}

func TestProfileFeedsBack(t *testing.T) {
	prof := sched.NewProfileScheduler()
	placements(t, 1, true, prof)
	if prof.Samples("k") == 0 {
		t.Fatal("profile recorded no samples")
	}
	// Export/import round-trips the learned state for warm starts.
	data, err := prof.ExportJSON()
	if err != nil {
		t.Fatal(err)
	}
	warm := sched.NewProfileScheduler()
	if err := warm.ImportJSON(data); err != nil {
		t.Fatal(err)
	}
	if warm.Samples("k") != prof.Samples("k") {
		t.Fatalf("round-trip lost samples: %d != %d", warm.Samples("k"), prof.Samples("k"))
	}
	p1, ok1 := prof.Predict("k", 1<<20)
	p2, ok2 := warm.Predict("k", 1<<20)
	if !ok1 || !ok2 || p1 != p2 {
		t.Fatalf("round-trip changed prediction: %v/%v %v/%v", p1, ok1, p2, ok2)
	}
}

func TestOverlapBytes(t *testing.T) {
	rt, _ := newStagedRuntime(0)
	var b *core.Buffer
	if _, err := rt.Run("setup", func(c *core.Ctx) error {
		var err error
		b, err = c.Alloc(4096)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		a, o Extent
		want int64
	}{
		{Extent{b, 0, 100}, Extent{b, 50, 100}, 50},
		{Extent{b, 0, 100}, Extent{b, 100, 100}, 0},
		{Extent{b, 0, 100}, Extent{b, 0, 100}, 100},
		{Extent{b, 10, 10}, Extent{b, 0, 100}, 10},
		{Extent{nil, 0, 100}, Extent{b, 0, 100}, 0},
	}
	for i, tc := range cases {
		if got := overlapBytes(tc.a, tc.o); got != tc.want {
			t.Fatalf("case %d: got %d want %d", i, got, tc.want)
		}
	}
}

// conflicts is the brute-force oracle for Graph.Add's extent index: t
// must wait for prev on any RAW, WAW or WAR overlap between their
// declared extents.
func conflicts(prev, t *Task) bool {
	for _, w := range prev.Writes {
		for _, r := range t.Reads {
			if w.overlaps(r) {
				return true
			}
		}
		for _, w2 := range t.Writes {
			if w.overlaps(w2) {
				return true
			}
		}
	}
	for _, r := range prev.Reads {
		for _, w := range t.Writes {
			if r.overlaps(w) {
				return true
			}
		}
	}
	return false
}

// fuzzBuffers allocates the four buffers FuzzGraphAdd draws extents from.
func fuzzBuffers(t testing.TB) []*core.Buffer {
	rt, _ := newStagedRuntime(0)
	var bufs []*core.Buffer
	if _, err := rt.Run("setup", func(c *core.Ctx) error {
		for i := 0; i < 4; i++ {
			b, err := c.Alloc(4096)
			if err != nil {
				return err
			}
			bufs = append(bufs, b)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return bufs
}

// FuzzGraphAdd decodes a task list over 1-4 buffers — overlapping,
// duplicate, zero-length and nil-buffer extents included — and requires
// every task's predecessor count and successor list from Graph.Add to
// equal the pairwise scan's.
func FuzzGraphAdd(f *testing.F) {
	bufs := fuzzBuffers(f)
	f.Add(uint8(0), []byte{0x05, 0, 0, 16, 0, 8, 16, 0x04, 0, 8, 8})
	f.Add(uint8(3), []byte{0x0f, 1, 10, 0, 2, 20, 30, 3, 0, 63, 4, 5, 5, 0, 0, 0,
		1, 10, 5, 2, 25, 0, 0x09, 4, 0, 0, 1, 12, 1, 0x06, 1, 11, 0})
	seq := make([]byte, 600)
	for i := range seq {
		seq[i] = byte(i*37 + i/7)
	}
	f.Add(uint8(2), seq)
	f.Fuzz(func(t *testing.T, nbuf uint8, data []byte) {
		nb := 1 + int(nbuf%4)
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return b
		}
		extents := func(n int) []Extent {
			var out []Extent
			for ; n > 0; n-- {
				var ex Extent
				// Selector nb names no buffer: an extent that overlaps nothing.
				if sel := int(next()) % (nb + 1); sel < nb {
					ex.Buf = bufs[sel]
				}
				ex.Off = int64(next())
				ex.Len = int64(next() % 64)
				out = append(out, ex)
			}
			return out
		}
		g := New()
		var tasks []*Task
		for len(data) > 0 && len(tasks) < 64 {
			h := next()
			tasks = append(tasks, g.Add(&Task{
				Reads:  extents(int(h & 3)),
				Writes: extents(int(h>>2) & 3),
			}))
		}
		outs := make([][]int, len(tasks))
		nblock := make([]int, len(tasks))
		for i, tk := range tasks {
			for p := 0; p < i; p++ {
				if conflicts(tasks[p], tk) {
					outs[p] = append(outs[p], i)
					nblock[i]++
				}
			}
		}
		for i, tk := range tasks {
			if tk.nblock != nblock[i] || !reflect.DeepEqual(tk.outs, outs[i]) {
				t.Fatalf("task %d: Add gives nblock=%d outs=%v, pairwise scan nblock=%d outs=%v",
					i, tk.nblock, tk.outs, nblock[i], outs[i])
			}
		}
	})
}

// BenchmarkAffinityPick runs a 32x32 GEMM-shaped grid under affinity
// placement with a staging cache of half the 64 shards: task (i, j) reads
// row shard i of A and column shard j of B through the cache. It reports
// the host cost of one whole graph run, building the graph included, and
// per pick.
func BenchmarkAffinityPick(b *testing.B) {
	const dim, shard = 32, 1 << 20
	b.ReportAllocs()
	for it := 0; it < b.N; it++ {
		b.StopTimer()
		e := sim.NewEngine()
		tree := topo.APU(e, topo.APUConfig{Storage: topo.SSD, StorageMiB: 128, DRAMMiB: 64})
		opts := core.DefaultOptions()
		opts.Phantom = true
		opts.Cache = core.CacheOptions{Enabled: true, CapacityBytes: dim * shard}
		rt := core.NewRuntime(e, tree, opts)
		root := tree.Root()
		dram := root.Children[0]
		fa, err := rt.CreateInput(root, "A", dim*shard, nil)
		if err != nil {
			b.Fatal(err)
		}
		fb, err := rt.CreateInput(root, "B", dim*shard, nil)
		if err != nil {
			b.Fatal(err)
		}
		fc, err := rt.CreateInput(root, "C", dim*dim*4096, nil)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		g := New()
		for i := 0; i < dim; i++ {
			for j := 0; j < dim; j++ {
				aOff, bOff := int64(i)*shard, int64(j)*shard
				g.Add(&Task{
					Name:   "block",
					Reads:  []Extent{{fa, aOff, shard}, {fb, bOff, shard}},
					Writes: []Extent{{fc, int64(i*dim+j) * 4096, 4096}},
					Cost:   1,
					Run: func(c *core.Ctx) error {
						as, err := c.MoveDataDownCached(dram, fa, aOff, shard)
						if err != nil {
							return err
						}
						defer c.Unpin(as)
						bs, err := c.MoveDataDownCached(dram, fb, bOff, shard)
						if err != nil {
							return err
						}
						return c.Unpin(bs)
					},
				})
			}
		}
		if _, err := rt.Run("grid", func(c *core.Ctx) error {
			_, err := g.Run(c, Options{Workers: 2, Affinity: true, Node: dram})
			return err
		}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*dim*dim), "ns/pick")
}

// rescanAffinity is affinity placement as it was before prices were
// cached: every pick rescores every ready task against the cache from
// scratch and removes the winner in place. It is the oracle the cached
// scorer must agree with pick for pick, and it keeps its own worker loop,
// woken by a count of ready tokens, so the comparison also holds run.work
// to an independent loop.
func rescanAffinity(r *run) {
	c := r.c
	rt := c.Runtime()
	tokens := sim.NewTokens(rt.Engine())
	var ready []int
	for id := range r.g.tasks {
		if r.nblock[id] == 0 {
			ready = append(ready, id)
			tokens.Put()
		}
	}
	score := func(t *Task) (float64, int64) {
		var computeSec float64
		if r.o.Profile != nil {
			if pt, ok := r.o.Profile.Predict(t.Kind, t.Cost); ok {
				computeSec = pt.Seconds()
			}
		}
		var resident int64
		var moveSec float64
		for _, ex := range t.Reads {
			if ex.Buf == nil || ex.Len <= 0 || ex.Buf.Node() == r.node {
				continue
			}
			res := rt.CacheResidentBytes(r.node, ex.Buf, ex.Off, ex.Len)
			resident += res
			moveSec += fetchSeconds(ex.Buf, r.node, ex.Len-res)
		}
		return computeSec + moveSec, resident
	}
	wg := sim.NewWaitGroup(rt.Engine())
	for w := 0; w < r.workers; w++ {
		wg.Add(1)
		c.Spawn(fmt.Sprintf("tg-worker%d", w), c.Node(), func(sub *core.Ctx) error {
			defer wg.Done()
			var last *Task
			for tokens.Take(sub.Proc()) {
				if r.err != nil || len(ready) == 0 {
					continue
				}
				best, bestSaved := -1, int64(0)
				var bestScore float64
				var bestAffin int64
				for i, id := range ready {
					t := r.g.tasks[id]
					s, resident := score(t)
					affin := int64(0)
					if last != nil {
						for _, ex := range t.Reads {
							for _, lx := range last.Reads {
								affin += overlapBytes(ex, lx)
							}
						}
					}
					if best < 0 || s < bestScore ||
						(s == bestScore && (affin > bestAffin ||
							(affin == bestAffin && ready[best] > id))) {
						best, bestScore, bestAffin, bestSaved = i, s, affin, resident
					}
				}
				id := ready[best]
				ready = append(ready[:best], ready[best+1:]...)
				r.st.AffinityPicks++
				r.st.SavedBytes += bestSaved
				last = r.g.tasks[id]
				if !r.execute(sub, id, "affinity", bestSaved) {
					tokens.Close()
					continue
				}
				for _, d := range r.g.tasks[id].outs {
					r.nblock[d]--
					if r.nblock[d] == 0 {
						ready = append(ready, d)
						tokens.Put()
					}
				}
				if r.completed == len(r.g.tasks) {
					tokens.Close()
				}
			}
			return nil
		})
	}
	wg.Wait(c.Proc())
}

// randomPlacement builds a seeded random graph on a fresh runtime — reads
// of recurring 1 MiB and 512 KiB extents of two storage sources through
// the staging cache, writes that chain some tasks, bodies that now and
// then prefetch an extent or overwrite a source extent they never
// declared — runs it under
// affinity placement with the given policy, and returns everything the
// run decided: execution order, statistics, makespan and cache counters.
func randomPlacement(t *testing.T, seed int64, policy func(*run)) string {
	t.Helper()
	state := uint64(seed)*2654435761 + 99991
	next := func(mod int) int {
		state = state*6364136223846793005 + 1442695040888963407
		return int(state>>33) % mod
	}
	e := sim.NewEngine()
	tree := topo.APU(e, topo.APUConfig{Storage: topo.SSD, StorageMiB: 64, DRAMMiB: 32, WithCPU: true})
	opts := core.DefaultOptions()
	opts.Phantom = true
	if mib := next(4); mib > 0 {
		opts.Cache = core.CacheOptions{Enabled: true, CapacityBytes: int64(mib) << 20, Prefetch: next(2) == 0}
	}
	rt := core.NewRuntime(e, tree, opts)
	root := tree.Root()
	dram := root.Children[0]
	var srcs [2]*core.Buffer
	var out *core.Buffer
	for i := range srcs {
		b, err := rt.CreateInput(root, fmt.Sprintf("src%d", i), 8<<20, nil)
		if err != nil {
			t.Fatal(err)
		}
		srcs[i] = b
	}
	out, err := rt.CreateInput(root, "out", 1<<20, nil)
	if err != nil {
		t.Fatal(err)
	}
	o := Options{Workers: 1 + next(4), Affinity: true, Node: dram}
	if next(2) == 0 {
		o.Profile = sched.NewProfileScheduler()
	}

	g := New()
	var order []int
	for i, n := 0, 16+next(24); i < n; i++ {
		var reads []Extent
		for k := 1 + next(3); k > 0; k-- {
			ln := int64(1 << 20)
			if next(3) == 0 {
				ln = 512 << 10
			}
			reads = append(reads, Extent{srcs[next(2)], int64(next(7)) << 20, ln})
		}
		var writes []Extent
		if next(3) == 0 {
			writes = append(writes, Extent{out, int64(next(8)) << 17, 1 << 17})
		}
		if next(4) == 0 {
			reads = append(reads, Extent{out, int64(next(8)) << 17, 1 << 17})
		}
		poke, pre := next(6) == 0, next(3) == 0
		pokeSrc, pokeOff := srcs[next(2)], int64(next(7))<<20
		preSrc, preOff := srcs[next(2)], int64(next(7))<<20
		g.Add(&Task{
			Name: fmt.Sprintf("t%02d", i), Kind: "k", Cost: float64(len(reads)) * 1e6,
			Reads: reads, Writes: writes,
			Run: func(c *core.Ctx) error {
				order = append(order, i)
				if pre {
					c.Prefetch(dram, preSrc, preOff, 1<<20)
				}
				for _, ex := range reads {
					if ex.Buf == out {
						continue
					}
					b, err := c.MoveDataDownCached(dram, ex.Buf, ex.Off, ex.Len)
					if err != nil {
						return err
					}
					defer c.Unpin(b)
				}
				if poke {
					tmp, err := c.AllocAt(dram, 1<<20)
					if err != nil {
						return err
					}
					defer c.Release(tmp)
					if err := c.MoveData(pokeSrc, tmp, pokeOff, 0, 1<<20); err != nil {
						return err
					}
				}
				return c.Descend(dram, func(dc *core.Ctx) error {
					_, err := dc.RunCPU(float64(len(reads))*1e6, float64(len(reads)<<20), func() {})
					return err
				})
			},
		})
	}
	var st *Stats
	stats, err := rt.Run("run", func(c *core.Ctx) error {
		var gerr error
		st, gerr = g.runWith(c, o, policy)
		return gerr
	})
	if err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	return fmt.Sprintf("order=%v stats=%+v elapsed=%d cache=%+v", order, *st, stats.Elapsed, rt.CacheStats())
}

// TestIncrementalPlacementMatchesRescan holds the cached scorer to the
// full rescan on random graphs, cache sizes, worker counts and profiles:
// the two must make the same picks, so everything downstream is equal.
func TestIncrementalPlacementMatchesRescan(t *testing.T) {
	f := func(seed int64) bool {
		got := randomPlacement(t, seed, (*run).runAffinity)
		want := randomPlacement(t, seed, rescanAffinity)
		if got != want {
			t.Logf("seed %d:\n cached %s\n rescan %s", seed, got, want)
		}
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
