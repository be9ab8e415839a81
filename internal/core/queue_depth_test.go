package core

import (
	"strings"
	"testing"

	"repro/internal/sched"
)

// depthSeries returns the registry's queue-depth series by name.
func depthSeries(rt *Runtime) map[string]float64 {
	out := map[string]float64{}
	for name, v := range rt.Metrics().Flatten() {
		if strings.HasPrefix(name, mQueueDepth+"{") {
			out[name] = v
		}
	}
	return out
}

// filled returns a deque holding n tasks.
func filled(name string, n int) *sched.Deque[int] {
	q := sched.NewDeque[int](name)
	for i := 0; i < n; i++ {
		q.PushTail(i)
	}
	return q
}

// TestQueueDepthGaugeIsAdditive is the regression test for the
// last-writer-wins depth-gauge bug: when two schedulers attach their
// queues at one node, the node's gauge reads the SUM of every attached
// queue's length, and each detach withdraws exactly its own share. The
// gauge is registered once per node, at the first attach there.
func TestQueueDepthGaugeIsAdditive(t *testing.T) {
	rt, _ := newMetricsRuntime(t, 0)
	node := rt.Tree().Node(1)
	key := mQueueDepth + `{node="1"}`
	if got := depthSeries(rt); len(got) != 0 {
		t.Fatalf("depth series before any attach: %v", got)
	}
	a, b, c := filled("a", 3), filled("b", 4), filled("c", 1)
	detachA := rt.AttachQueues(node, a)
	if got := depthSeries(rt)[key]; got != 3 {
		t.Fatalf("after attaching a=3: gauge = %v, want 3", got)
	}
	// The second scheduler's queues add to the first's.
	detachBC := rt.AttachQueues(node, b, c)
	if got := depthSeries(rt)[key]; got != 8 {
		t.Fatalf("after attaching b=4, c=1: gauge = %v, want 8 (additive)", got)
	}
	a.PopTail()
	b.StealHead()
	b.PushTail(9)
	if got := depthSeries(rt)[key]; got != 7 {
		t.Fatalf("after a pop, a steal and a push: gauge = %v, want 7", got)
	}
	// Detaching one scheduler withdraws only its queues.
	detachA()
	if got := depthSeries(rt)[key]; got != 5 {
		t.Fatalf("after detaching a: gauge = %v, want 5", got)
	}
	a.PushTail(1)
	if got := depthSeries(rt)[key]; got != 5 {
		t.Fatalf("a detached queue moved the gauge: %v, want 5", got)
	}
	detachBC()
	if got := depthSeries(rt)[key]; got != 0 {
		t.Fatalf("after both detach: gauge = %v, want 0", got)
	}
	// A later attach at the node reads through the same series; another
	// node gets its own.
	detach := rt.AttachQueues(node, a)
	detachRoot := rt.AttachQueues(rt.Tree().Root(), c)
	got := depthSeries(rt)
	if len(got) != 2 || got[key] != 3 || got[mQueueDepth+`{node="0"}`] != 1 {
		t.Fatalf("re-attach at node 1 and attach at node 0: series %v, want node 1 = 3, node 0 = 1", got)
	}
	detach()
	detachRoot()
}

// TestQueueDepthGaugeMetricsOff checks that without a registry
// AttachQueues only attaches: nothing is registered, the monitors reach
// the node, and the detach takes them off again.
func TestQueueDepthGaugeMetricsOff(t *testing.T) {
	_, rt := newAPURuntime(t)
	node := rt.Tree().Node(1)
	detach := rt.AttachQueues(node, filled("q", 2))
	if rt.metrics != nil || rt.Metrics() != nil {
		t.Fatal("metrics subscription on a runtime without a registry")
	}
	if len(node.Queues) != 1 || rt.Tree().SubtreeLoad(node) != 2 {
		t.Fatalf("attach without metrics: %d monitors, load %d; want 1 and 2",
			len(node.Queues), rt.Tree().SubtreeLoad(node))
	}
	detach()
	if len(node.Queues) != 0 {
		t.Fatalf("%d monitors left after detach", len(node.Queues))
	}
}
