// Package fault is a seeded, deterministic fault injector for the Northup
// runtime. It models the failure surface of the paper's real hardware — a
// SATA disk that drops a request, a PCIe transfer that times out, a device
// memory that transiently refuses an allocation, a whole device falling off
// the bus — inside the discrete-event simulation, so resilience policies can
// be exercised reproducibly.
//
// Three fault classes are supported:
//
//   - per-transfer faults: any move_data crossing a tree edge may be delayed
//     or failed outright, at configured probabilities drawn from a seeded
//     PRNG (the engine serializes execution, so the draw order — and hence
//     the whole fault schedule — is a pure function of the seed);
//   - outages: a tree node, or one processor class at a node, goes offline
//     for a window of virtual time; operations touching it fail with an
//     *OfflineError carrying the recovery time;
//   - allocation pressure: alloc on a node transiently reports no space
//     (an injected ENOSPC), independent of real capacity.
//
// All injected failures are transient: IsTransient reports true for them,
// which is the contract the runtime's retry policy (core.RetryPolicy)
// dispatches on. Genuine program errors (range violations, real capacity
// exhaustion) never originate here and are never retried.
package fault

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/sim"
)

// Config sets the probabilistic fault rates. All rates are probabilities in
// [0, 1] evaluated independently per operation.
type Config struct {
	// Seed drives the PRNG behind all probabilistic draws. Runs with equal
	// seeds (and equal workloads) produce identical fault schedules.
	Seed int64

	// TransferFailRate is the probability that one transfer (move_data on
	// any edge, including file I/O) fails with a transient error.
	TransferFailRate float64

	// TransferDelayRate is the probability that one transfer is delayed by
	// TransferDelay before proceeding normally.
	TransferDelayRate float64

	// TransferDelay is the injected per-transfer stall (default 500µs, a
	// retried-request/ECC-recovery-scale hiccup).
	TransferDelay sim.Time

	// AllocFailRate is the probability that one allocation transiently
	// reports no space.
	AllocFailRate float64
}

// Stats counts injected events; read it after a run to confirm the injector
// actually exercised the resilience path.
type Stats struct {
	// TransferFails counts transfers failed outright.
	TransferFails int64
	// TransferDelays counts transfers stalled by TransferDelay.
	TransferDelays int64
	// AllocFails counts allocations transiently refused.
	AllocFails int64
	// OfflineRejects counts operations refused because an endpoint was
	// inside an outage window.
	OfflineRejects int64
}

// Any reports whether any fault was injected.
func (s Stats) Any() bool {
	return s.TransferFails+s.TransferDelays+s.AllocFails+s.OfflineRejects > 0
}

// Window is a half-open interval [From, Until) of virtual time during which
// a component is offline.
type Window struct {
	From, Until sim.Time
}

// contains reports whether t falls inside the window.
func (w Window) contains(t sim.Time) bool { return t >= w.From && t < w.Until }

// Processor class names for TakeProcOffline/ProcOffline, shared vocabulary
// between the injector and leaf schedulers.
const (
	ClassCPU = "cpu"
	ClassGPU = "gpu"
)

// procKey identifies one processor class at one tree node.
type procKey struct {
	node  int
	class string
}

// Injector injects faults into runtime operations. Create one per engine
// and hand it to the runtime via core.Options.Faults. All methods must be
// called from simulation processes (or before the engine runs); the engine's
// serialization makes the injector safe without locks.
type Injector struct {
	engine *sim.Engine
	cfg    Config
	rng    *rand.Rand

	nodeOut map[int][]Window
	procOut map[procKey][]Window

	stats Stats
}

// New creates an injector bound to the engine. A zero Config injects
// nothing until outage windows are scheduled.
func New(e *sim.Engine, cfg Config) *Injector {
	if cfg.TransferDelay <= 0 {
		cfg.TransferDelay = sim.Microseconds(500)
	}
	return &Injector{
		engine:  e,
		cfg:     cfg,
		rng:     rand.New(rand.NewSource(cfg.Seed)),
		nodeOut: make(map[int][]Window),
		procOut: make(map[procKey][]Window),
	}
}

// Config returns the injector's configuration (with defaults applied).
func (in *Injector) Config() Config { return in.cfg }

// Stats returns the counts of injected events so far; a nil injector has
// injected nothing.
func (in *Injector) Stats() Stats {
	if in == nil {
		return Stats{}
	}
	return in.stats
}

// TakeNodeOffline schedules an outage window for a tree node: transfers
// touching the node and allocations on it fail with *OfflineError while the
// window is open. Windows may be scheduled before or during a run.
func (in *Injector) TakeNodeOffline(nodeID int, w Window) {
	if w.Until <= w.From {
		panic(fmt.Sprintf("fault: empty outage window [%v,%v) for node %d", w.From, w.Until, nodeID))
	}
	in.nodeOut[nodeID] = insertWindow(in.nodeOut[nodeID], w)
}

// TakeProcOffline schedules an outage window for one processor class
// ("gpu", "cpu", ...) at a node: the device stays reachable, but leaf
// schedulers should re-route that class's work (see ProcOffline).
func (in *Injector) TakeProcOffline(nodeID int, class string, w Window) {
	if w.Until <= w.From {
		panic(fmt.Sprintf("fault: empty outage window [%v,%v) for node %d %s", w.From, w.Until, nodeID, class))
	}
	k := procKey{node: nodeID, class: class}
	in.procOut[k] = insertWindow(in.procOut[k], w)
}

// insertWindow keeps windows sorted by start time.
func insertWindow(ws []Window, w Window) []Window {
	i := sort.Search(len(ws), func(i int) bool { return ws[i].From > w.From })
	ws = append(ws, Window{})
	copy(ws[i+1:], ws[i:])
	ws[i] = w
	return ws
}

// NodeOfflineAt reports whether the node is inside an outage window at time
// t, and if so when it recovers.
func (in *Injector) NodeOfflineAt(nodeID int, t sim.Time) (until sim.Time, offline bool) {
	for _, w := range in.nodeOut[nodeID] {
		if w.contains(t) {
			return w.Until, true
		}
	}
	return 0, false
}

// ProcOfflineAt reports whether the processor class at the node is inside an
// outage window at time t, and if so when it recovers.
func (in *Injector) ProcOfflineAt(nodeID int, class string, t sim.Time) (until sim.Time, offline bool) {
	for _, w := range in.procOut[procKey{node: nodeID, class: class}] {
		if w.contains(t) {
			return w.Until, true
		}
	}
	return 0, false
}

// ProcOffline reports whether the processor class at the node is offline at
// the engine's current time: the check leaf schedulers poll before taking
// work (package hotspot's steal path fails GPU tasks over to the CPU on it).
func (in *Injector) ProcOffline(nodeID int, class string) bool {
	_, off := in.ProcOfflineAt(nodeID, class, in.engine.Now())
	return off
}

// Transfer evaluates the fault schedule for one transfer on the edge
// srcNode -> dstNode. It may stall the calling process (injected delay),
// and returns a transient error when the transfer fails or an endpoint is
// offline. A nil return means the transfer proceeds.
func (in *Injector) Transfer(p *sim.Proc, srcNode, dstNode int, n int64) error {
	now := p.Now()
	for _, id := range [2]int{srcNode, dstNode} {
		if until, off := in.NodeOfflineAt(id, now); off {
			in.stats.OfflineRejects++
			return &OfflineError{Node: id, Until: until}
		}
	}
	if in.cfg.TransferDelayRate > 0 && in.rng.Float64() < in.cfg.TransferDelayRate {
		in.stats.TransferDelays++
		p.Sleep(in.cfg.TransferDelay)
	}
	if in.cfg.TransferFailRate > 0 && in.rng.Float64() < in.cfg.TransferFailRate {
		in.stats.TransferFails++
		return &Error{Op: "transfer",
			Detail: fmt.Sprintf("injected failure on edge node%d->node%d (%d bytes)", srcNode, dstNode, n)}
	}
	return nil
}

// Alloc evaluates the fault schedule for one allocation on the node,
// returning a transient error for injected ENOSPC or an outage.
func (in *Injector) Alloc(p *sim.Proc, nodeID int, size int64) error {
	if until, off := in.NodeOfflineAt(nodeID, p.Now()); off {
		in.stats.OfflineRejects++
		return &OfflineError{Node: nodeID, Until: until}
	}
	if in.cfg.AllocFailRate > 0 && in.rng.Float64() < in.cfg.AllocFailRate {
		in.stats.AllocFails++
		return &Error{Op: "alloc",
			Detail: fmt.Sprintf("injected transient ENOSPC on node%d (%d bytes)", nodeID, size)}
	}
	return nil
}

// Error is an injected transient fault (a failed transfer or a transient
// allocation refusal).
type Error struct {
	Op     string
	Detail string
}

// Error implements the error interface.
func (e *Error) Error() string { return fmt.Sprintf("fault: %s: %s", e.Op, e.Detail) }

// Transient marks the error as retryable.
func (e *Error) Transient() bool { return true }

// OfflineError reports an operation that touched a component inside an
// outage window. Until is the virtual time the component recovers, which
// retry policies use to wait out the outage instead of backing off blindly.
type OfflineError struct {
	Node  int
	Class string // empty for whole-node outages
	Until sim.Time
}

// Error implements the error interface.
func (e *OfflineError) Error() string {
	what := fmt.Sprintf("node%d", e.Node)
	if e.Class != "" {
		what += "/" + e.Class
	}
	return fmt.Sprintf("fault: %s offline until %v", what, e.Until)
}

// Transient marks the error as retryable.
func (e *OfflineError) Transient() bool { return true }

// IsTransient reports whether err (or anything it wraps) is a retryable
// injected fault. Real program errors — range violations, true capacity
// exhaustion — report false and must not be retried.
func IsTransient(err error) bool {
	var t interface{ Transient() bool }
	return errors.As(err, &t) && t.Transient()
}
