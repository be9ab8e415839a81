package sched

import "testing"

// TestHooksFireAfterStateUpdate pins the hook contract: OnPop and OnSteal
// observe the deque AFTER the operation, so Len() read inside a hook
// reflects it, and a push fires neither.
func TestHooksFireAfterStateUpdate(t *testing.T) {
	d := NewDeque[int]("hooked")
	var depths []int
	record := func() { depths = append(depths, d.Len()) }
	d.OnPop, d.OnSteal = record, record

	d.PushTail(1)
	d.PushTail(2)
	d.PushTail(3)
	if _, ok := d.PopTail(); !ok { // len 2
		t.Fatal("pop failed")
	}
	d.PushTail(4)                    // len 3
	if _, ok := d.StealHead(); !ok { // len 2
		t.Fatal("steal failed")
	}
	if _, ok := d.StealHead(); !ok { // len 1
		t.Fatal("steal failed")
	}
	want := []int{2, 2, 1}
	if len(depths) != len(want) {
		t.Fatalf("hook firings = %v, want %v", depths, want)
	}
	for i := range want {
		if depths[i] != want[i] {
			t.Fatalf("hook %d observed len %d, want %d (full: %v)", i, depths[i], want[i], depths)
		}
	}
}

// TestHooksSkippedOnFailedOps: unsuccessful PopTail/StealHead on an empty
// deque must not fire hooks — a failed pop is not a pop, nor a failed
// steal a steal.
func TestHooksSkippedOnFailedOps(t *testing.T) {
	d := NewDeque[int]("empty")
	fired := 0
	d.OnPop = func() { fired++ }
	d.OnSteal = func() { fired++ }
	if _, ok := d.PopTail(); ok {
		t.Fatal("pop on empty succeeded")
	}
	if _, ok := d.StealHead(); ok {
		t.Fatal("steal on empty succeeded")
	}
	if fired != 0 {
		t.Fatalf("hooks fired %d times on failed operations", fired)
	}
}

// TestPeekHeadDoesNotDisturb: PeekHead must return the oldest element
// without removing it, firing hooks, or advancing steal/pop counters —
// it is the admission dispatcher's quota probe.
func TestPeekHeadDoesNotDisturb(t *testing.T) {
	d := NewDeque[string]("peek")
	if _, ok := d.PeekHead(); ok {
		t.Fatal("peek on empty succeeded")
	}
	fired := 0
	d.OnPop = func() { fired++ }
	d.OnSteal = func() { fired++ }
	d.PushTail("first")
	d.PushTail("second")
	v, ok := d.PeekHead()
	if !ok || v != "first" {
		t.Fatalf("peek = %q, %v; want \"first\", true", v, ok)
	}
	if d.Len() != 2 || fired != 0 {
		t.Fatalf("peek disturbed the deque: len %d, hooks %d", d.Len(), fired)
	}
	if pops, steals := d.Stats(); pops != 0 || steals != 0 {
		t.Fatalf("peek moved counters: pops %d steals %d", pops, steals)
	}
	// The element is still stealable afterwards.
	if got, ok := d.StealHead(); !ok || got != "first" {
		t.Fatalf("steal after peek = %q, %v", got, ok)
	}
}
