package northup

// This file re-exports the fault-injection and resilience surface: a seeded
// deterministic injector (package fault) plus the runtime's retry/degradation
// policy (core.RetryPolicy), and a small text format for configuring both
// from a command line ("seed=42,rate=0.05,...", the northup-run --faults
// flag).

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/fault"
)

// Fault-injection and resilience types.
type (
	// FaultConfig sets the injector's seed and per-operation fault rates.
	FaultConfig = fault.Config
	// FaultInjector injects deterministic transfer/alloc/outage faults.
	FaultInjector = fault.Injector
	// FaultStats counts injected events.
	FaultStats = fault.Stats
	// FaultWindow is a half-open virtual-time outage interval.
	FaultWindow = fault.Window
	// RetryPolicy tunes the runtime's retries, backoff and per-op timeouts.
	RetryPolicy = core.RetryPolicy
	// ResilienceStats counts the runtime's fault-handling outcomes.
	ResilienceStats = core.ResilienceStats
)

// Processor class names for targeted outages.
const (
	ProcClassCPU = fault.ClassCPU
	ProcClassGPU = fault.ClassGPU
)

// NewFaultInjector creates an injector bound to the engine. Hand it to the
// runtime via Options.Faults before NewRuntime.
func NewFaultInjector(e *Engine, cfg FaultConfig) *FaultInjector {
	return fault.New(e, cfg)
}

// DefaultRetryPolicy returns the policy the runtime adopts when an injector
// is configured without an explicit one.
func DefaultRetryPolicy() RetryPolicy { return core.DefaultRetryPolicy() }

// IsTransientFault reports whether err is a retryable injected fault.
func IsTransientFault(err error) bool { return fault.IsTransient(err) }

// FaultOutage schedules one component offline for a window.
type FaultOutage struct {
	// Node is the tree-node ID (BFS order, root = 0).
	Node int
	// Class is a processor class ("gpu", "cpu") for a targeted outage, or
	// empty to take the whole node offline.
	Class string
	// Window is the outage interval.
	Window FaultWindow
}

// FaultPlan is a parsed fault specification: probabilistic rates plus any
// scheduled outages. Inject realizes it on an engine.
type FaultPlan struct {
	Config  FaultConfig
	Outages []FaultOutage
}

// Inject creates the injector on the engine and schedules the plan's
// outage windows.
func (p *FaultPlan) Inject(e *Engine) *FaultInjector {
	inj := fault.New(e, p.Config)
	for _, o := range p.Outages {
		if o.Class == "" {
			inj.TakeNodeOffline(o.Node, o.Window)
		} else {
			inj.TakeProcOffline(o.Node, o.Class, o.Window)
		}
	}
	return inj
}

// ParseFaults parses the command-line fault specification: comma-separated
// key=value pairs.
//
//	seed=N          PRNG seed (default 0)
//	rate=P          transfer failure probability in [0,1]
//	delay-rate=P    transfer delay probability in [0,1]
//	delay-us=D      injected delay in microseconds (default 500)
//	alloc-rate=P    transient alloc-failure probability in [0,1]
//	offline=SPEC    outage NODE[/gpu]:FROM_MS:UNTIL_MS (repeatable)
//
// Example: "seed=42,rate=0.05,offline=1/gpu:2:5" fails 5% of transfers and
// takes node 1's GPU offline from 2ms to 5ms of virtual time.
//
// Values no run could honour are rejected with a message naming the field:
// NaN rates, delays and outage bounds that are not finite, negative or past
// the int64 nanosecond range, and CPU-class outages (no scheduler re-routes
// CPU work).
func ParseFaults(spec string) (*FaultPlan, error) {
	p := &FaultPlan{}
	for _, field := range strings.Split(spec, ",") {
		field = strings.TrimSpace(field)
		if field == "" {
			continue
		}
		key, val, ok := strings.Cut(field, "=")
		if !ok {
			return nil, fmt.Errorf("faults: %q is not key=value", field)
		}
		var err error
		switch key {
		case "seed":
			p.Config.Seed, err = strconv.ParseInt(val, 10, 64)
		case "rate":
			p.Config.TransferFailRate, err = parseRate(val)
		case "delay-rate":
			p.Config.TransferDelayRate, err = parseRate(val)
		case "delay-us":
			var us float64
			if us, err = strconv.ParseFloat(val, 64); err == nil {
				if !(us > 0) {
					return nil, fmt.Errorf("faults: delay-us=%q must be positive", val)
				}
				if p.Config.TransferDelay, err = toTime(us, Microsecond); err == nil && p.Config.TransferDelay == 0 {
					// The injector reads a zero delay as "use the default".
					err = fmt.Errorf("%v rounds to zero nanoseconds", us)
				}
			}
		case "alloc-rate":
			p.Config.AllocFailRate, err = parseRate(val)
		case "offline":
			var o FaultOutage
			if o, err = parseOutage(val); err == nil {
				p.Outages = append(p.Outages, o)
			}
		default:
			return nil, fmt.Errorf("faults: unknown key %q", key)
		}
		if err != nil {
			return nil, fmt.Errorf("faults: bad %s=%q: %v", key, val, err)
		}
	}
	return p, nil
}

// parseRate parses a probability and checks it is in [0,1] (so not NaN).
func parseRate(s string) (float64, error) {
	r, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, err
	}
	if !(r >= 0 && r <= 1) {
		return 0, fmt.Errorf("rate %v outside [0,1]", r)
	}
	return r, nil
}

// toTime converts v units to virtual time, refusing what no schedule can
// honour: NaN, infinities, negative values and values past the int64
// nanosecond range.
func toTime(v float64, unit Time) (Time, error) {
	switch {
	case math.IsNaN(v) || math.IsInf(v, 0):
		return 0, fmt.Errorf("%v is not a finite time", v)
	case v < 0:
		return 0, fmt.Errorf("%v is before time 0", v)
	case v*float64(unit) >= math.MaxInt64:
		return 0, fmt.Errorf("%v overflows virtual time", v)
	}
	return Time(v * float64(unit)), nil
}

// parseOutage parses NODE[/CLASS]:FROM_MS:UNTIL_MS.
func parseOutage(s string) (FaultOutage, error) {
	parts := strings.Split(s, ":")
	if len(parts) != 3 {
		return FaultOutage{}, fmt.Errorf("want NODE[/CLASS]:FROM_MS:UNTIL_MS")
	}
	target := parts[0]
	var o FaultOutage
	if node, class, ok := strings.Cut(target, "/"); ok {
		target, o.Class = node, class
		switch o.Class {
		case ProcClassGPU:
		case ProcClassCPU:
			// Failover re-routes GPU work to the CPU; nothing re-routes
			// CPU work, so a CPU outage would silently change nothing.
			return FaultOutage{}, fmt.Errorf("processor class %q: no scheduler honours CPU outages (use gpu, or a whole-node outage)", o.Class)
		default:
			return FaultOutage{}, fmt.Errorf("unknown processor class %q", o.Class)
		}
	}
	node, err := strconv.Atoi(target)
	if err != nil || node < 0 {
		return FaultOutage{}, fmt.Errorf("bad node id %q", target)
	}
	o.Node = node
	from, err := strconv.ParseFloat(parts[1], 64)
	if err == nil {
		o.Window.From, err = toTime(from, Millisecond)
	}
	if err != nil {
		return FaultOutage{}, fmt.Errorf("bad from-ms %q: %v", parts[1], err)
	}
	until, err := strconv.ParseFloat(parts[2], 64)
	if err == nil {
		o.Window.Until, err = toTime(until, Millisecond)
	}
	if err != nil {
		return FaultOutage{}, fmt.Errorf("bad until-ms %q: %v", parts[2], err)
	}
	if o.Window.Until <= o.Window.From {
		return FaultOutage{}, fmt.Errorf("empty window [%vms,%vms)", from, until)
	}
	return o, nil
}
