package sched

import (
	"testing"
	"testing/quick"
)

func TestPushPopLIFO(t *testing.T) {
	d := NewDeque[int]("q")
	for i := 0; i < 5; i++ {
		d.PushTail(i)
	}
	for i := 4; i >= 0; i-- {
		v, ok := d.PopTail()
		if !ok || v != i {
			t.Fatalf("PopTail = %d,%v want %d", v, ok, i)
		}
	}
	if _, ok := d.PopTail(); ok {
		t.Fatal("pop from empty deque succeeded")
	}
}

func TestStealFIFO(t *testing.T) {
	d := NewDeque[int]("q")
	for i := 0; i < 5; i++ {
		d.PushTail(i)
	}
	for i := 0; i < 5; i++ {
		v, ok := d.StealHead()
		if !ok || v != i {
			t.Fatalf("StealHead = %d,%v want %d", v, ok, i)
		}
	}
	if _, ok := d.StealHead(); ok {
		t.Fatal("steal from empty deque succeeded")
	}
}

func TestOppositeEnds(t *testing.T) {
	d := NewDeque[int]("q")
	for i := 0; i < 4; i++ {
		d.PushTail(i) // 0 1 2 3
	}
	if v, _ := d.StealHead(); v != 0 {
		t.Fatalf("steal got %d", v)
	}
	if v, _ := d.PopTail(); v != 3 {
		t.Fatalf("pop got %d", v)
	}
	if d.Len() != 2 {
		t.Fatalf("len = %d", d.Len())
	}
	pops, steals := d.Stats()
	if pops != 1 || steals != 1 {
		t.Fatalf("stats = %d,%d", pops, steals)
	}
}

func TestGrowthPreservesOrder(t *testing.T) {
	d := NewDeque[int]("q")
	// Interleave to force wraparound before growth.
	for i := 0; i < 6; i++ {
		d.PushTail(i)
	}
	d.StealHead() // 0
	d.StealHead() // 1
	for i := 6; i < 40; i++ {
		d.PushTail(i)
	}
	for want := 2; want < 40; want++ {
		v, ok := d.StealHead()
		if !ok || v != want {
			t.Fatalf("after growth StealHead = %d,%v want %d", v, ok, want)
		}
	}
}

func TestEveryTaskExactlyOnce(t *testing.T) {
	// Property: any interleaving of owner pops and thief steals delivers
	// each task exactly once.
	f := func(ops []bool, nRaw uint8) bool {
		n := int(nRaw%50) + 1
		d := NewDeque[int]("q")
		for i := 0; i < n; i++ {
			d.PushTail(i)
		}
		seen := make(map[int]int)
		for _, fromTail := range ops {
			var v int
			var ok bool
			if fromTail {
				v, ok = d.PopTail()
			} else {
				v, ok = d.StealHead()
			}
			if ok {
				seen[v]++
			}
		}
		for d.Len() > 0 {
			v, _ := d.PopTail()
			seen[v]++
		}
		if len(seen) != n {
			return false
		}
		for _, c := range seen {
			if c != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestInterleavedStealingConservesTasks(t *testing.T) {
	// Property: over several deques, any interleaving of owner pushes,
	// owner pops and cross-queue steals (the engine serializes real
	// schedulers exactly like this) neither loses nor duplicates a task —
	// even across growth and wraparound.
	f := func(script []uint8, nqRaw uint8) bool {
		nq := int(nqRaw%4) + 2 // 2..5 queues
		queues := make([]*Deque[int], nq)
		for i := range queues {
			queues[i] = NewDeque[int]("q")
		}
		next := 0 // every pushed task gets a unique identity
		seen := make(map[int]bool)
		deliver := func(v int) bool {
			if seen[v] {
				return false
			}
			seen[v] = true
			return true
		}
		for _, op := range script {
			q := int(op>>2) % nq
			switch op % 4 {
			case 0, 1: // bias toward pushes so queues stay non-trivial
				queues[q].PushTail(next)
				next++
			case 2:
				if v, ok := queues[q].PopTail(); ok && !deliver(v) {
					return false
				}
			case 3: // q's owner takes its own tail, or steals a sibling's head when dry
				if v, _, ok := Take(queues, q, nil); ok && !deliver(v) {
					return false
				}
			}
		}
		for _, q := range queues {
			for {
				v, ok := q.PopTail()
				if !ok {
					break
				}
				if !deliver(v) {
					return false
				}
			}
		}
		// No duplicates (checked above) and nothing lost: every identity
		// ever pushed was delivered exactly once.
		return len(seen) == next && TotalLen(queues) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestPartitionRoundRobin(t *testing.T) {
	items := make([]int, 10)
	for i := range items {
		items[i] = i
	}
	qs := Partition(items, 3, "w")
	if len(qs) != 3 {
		t.Fatalf("%d queues", len(qs))
	}
	wantLens := []int{4, 3, 3}
	for i, q := range qs {
		if q.Len() != wantLens[i] {
			t.Fatalf("queue %d len %d want %d", i, q.Len(), wantLens[i])
		}
	}
	if v, _ := qs[1].StealHead(); v != 1 {
		t.Fatalf("queue 1 head = %d", v)
	}
	if qs[0].Name() != "w0" {
		t.Fatalf("queue name %q", qs[0].Name())
	}
}

// TestStealFromScansOthers checks Take's victim order on a GPU class of
// four queues and a CPU class of three: the owner's tail first, then every
// head of the other class in index order, then the siblings' heads
// round-robin after the owner, each with its source, and every task
// exactly once.
func TestStealFromScansOthers(t *testing.T) {
	gpu := Partition([]int{10, 11, 12, 13, 14, 15, 16, 17}, 4, "gpu") // gpu1 holds 11, 15
	cpu := Partition([]int{20, 21, 22, 23, 24}, 3, "cpu")             // cpu0 holds 20, 23
	type take struct {
		v   int
		src Source
	}
	want := []take{
		{15, FromOwn}, {11, FromOwn},
		{20, FromOther}, {23, FromOther}, {21, FromOther}, {24, FromOther}, {22, FromOther},
		{12, FromSibling}, {16, FromSibling}, {13, FromSibling}, {17, FromSibling},
		{10, FromSibling}, {14, FromSibling},
	}
	for i, w := range want {
		v, src, ok := Take(gpu, 1, cpu)
		if !ok || v != w.v || src != w.src {
			t.Fatalf("take %d = %d from %d (%v), want %d from %d", i, v, src, ok, w.v, w.src)
		}
	}
	if _, _, ok := Take(gpu, 1, cpu); ok {
		t.Fatal("take from all-empty queues succeeded")
	}
	if TotalLen(gpu)+TotalLen(cpu) != 0 {
		t.Fatalf("TotalLen = %d", TotalLen(gpu)+TotalLen(cpu))
	}
	// Without another class, a dry owner goes straight to its siblings,
	// starting after itself and wrapping.
	qs := Partition([]int{10, 20, 30, 40}, 4, "q")
	for i, w := range []take{{20, FromOwn}, {30, FromSibling}, {40, FromSibling}, {10, FromSibling}} {
		if v, src, ok := Take(qs, 1, nil); !ok || v != w.v || src != w.src {
			t.Fatalf("sibling take %d = %d from %d (%v), want %d from %d", i, v, src, ok, w.v, w.src)
		}
	}
}
