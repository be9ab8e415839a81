package sched

import "testing"

// BenchmarkDequeOwnerOps measures the owner's push/pop fast path.
func BenchmarkDequeOwnerOps(b *testing.B) {
	d := NewDeque[int]("q")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.PushTail(i)
		d.PopTail()
	}
}

// BenchmarkDequeStealPath measures the thief's path with refills.
func BenchmarkDequeStealPath(b *testing.B) {
	d := NewDeque[int]("q")
	for i := 0; i < 1024; i++ {
		d.PushTail(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if v, ok := d.StealHead(); ok {
			d.PushTail(v)
		}
	}
}

// BenchmarkTakeScan measures a dry owner's victim scan across many queues.
func BenchmarkTakeScan(b *testing.B) {
	items := make([]int, 32)
	qs := Partition(items, 32, "q")
	// Leave work only in the last queue, worst case for the scan.
	for i := 0; i < 31; i++ {
		qs[i].PopTail()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if v, _, ok := Take(qs, 0, nil); ok {
			qs[31].PushTail(v)
		}
	}
}

// BenchmarkProfileSchedulerPick measures the learned-mapping hot path.
func BenchmarkProfileSchedulerPick(b *testing.B) {
	s := NewProfileScheduler()
	s.Record("gpu", 1e6, 1e6)
	s.Record("gpu", 2e6, 1.5e6)
	s.Record("cpu", 1e6, 3e6)
	s.Record("cpu", 2e6, 6e6)
	candidates := []string{"gpu", "cpu"}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Pick(candidates, float64(i%100)*1e5); err != nil {
			b.Fatal(err)
		}
	}
}
