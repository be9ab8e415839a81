package core

import (
	"testing"
)

// depthValue reads the node-1 queue-depth gauge from the registry.
func depthValue(t *testing.T, rt *Runtime) float64 {
	t.Helper()
	flat := rt.Metrics().Flatten()
	for name, v := range flat {
		if name == `northup_queue_depth{node="1"}` {
			return v
		}
	}
	return 0
}

// TestQueueDepthSlotsAreAdditive is the regression test for the
// last-writer-wins depth-gauge bug: when two concurrent schedulers publish
// queue depth for the same node, the node gauge must read their SUM, and
// each slot's Close must withdraw exactly its own contribution — an
// absolute Set from one scheduler must not clobber the other's.
func TestQueueDepthSlotsAreAdditive(t *testing.T) {
	rt, _ := newMetricsRuntime(t, 0)

	s1 := rt.NewQueueDepthSlot(1)
	s2 := rt.NewQueueDepthSlot(1)

	s1.Set(3)
	if got := depthValue(t, rt); got != 3 {
		t.Fatalf("after s1=3: gauge = %v, want 3", got)
	}
	// The second scheduler publishing must ADD, not overwrite.
	s2.Set(5)
	if got := depthValue(t, rt); got != 8 {
		t.Fatalf("after s1=3, s2=5: gauge = %v, want 8 (additive)", got)
	}
	// Interleaved updates keep the sum.
	s1.Set(1)
	s2.Set(7)
	if got := depthValue(t, rt); got != 8 {
		t.Fatalf("after s1=1, s2=7: gauge = %v, want 8", got)
	}
	// Closing one slot withdraws only its share.
	s1.Close()
	if got := depthValue(t, rt); got != 7 {
		t.Fatalf("after s1.Close: gauge = %v, want 7", got)
	}
	// A closed slot is inert.
	s1.Set(100)
	if got := depthValue(t, rt); got != 7 {
		t.Fatalf("closed slot moved the gauge: %v, want 7", got)
	}
	s2.Close()
	if got := depthValue(t, rt); got != 0 {
		t.Fatalf("after both Close: gauge = %v, want 0", got)
	}
}

// TestQueueDepthSlotMetricsOff checks slots are safe no-ops on a runtime
// without a metrics registry.
func TestQueueDepthSlotMetricsOff(t *testing.T) {
	_, rt := newAPURuntime(t)
	s := rt.NewQueueDepthSlot(1)
	s.Set(5)
	s.Close()
	s.Set(1)
}
