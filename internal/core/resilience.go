package core

import (
	"errors"
	"fmt"

	"repro/internal/fault"
	"repro/internal/sim"
	"repro/internal/trace"
)

// This file implements the runtime's resilience policy: transient faults
// injected by a fault.Injector (failed transfers, offline nodes, allocation
// pressure) are absorbed by bounded retries with exponential backoff and
// optional per-operation deadlines, so recursive Northup programs survive
// the failure modes of the paper's real devices without application-level
// error handling. Non-transient errors (range violations, true capacity
// exhaustion) pass through untouched.

// RetryPolicy bounds how hard the runtime fights transient faults on
// DataDown/DataUp/MoveData/Alloc before surfacing the error.
type RetryPolicy struct {
	// MaxRetries is the number of re-attempts after the first failure of
	// one operation (0 disables retrying).
	MaxRetries int

	// BaseBackoff is the sleep before the first retry; each further retry
	// doubles it (exponential backoff), capped at MaxBackoff.
	BaseBackoff sim.Time

	// MaxBackoff caps the exponential growth (0 means uncapped).
	MaxBackoff sim.Time

	// OpTimeout is the per-operation deadline: an operation whose virtual
	// duration exceeds it — typically because the injector stalled the
	// transfer — counts as timed out and is retried like a failure.
	// Zero disables deadlines.
	OpTimeout sim.Time
}

// DefaultRetryPolicy returns the standard resilience settings: 8 retries
// with 50µs..10ms exponential backoff and no per-op deadline. At the 1-5%
// transfer-failure rates of the fault-injection experiments, eight retries
// make an unrecoverable move astronomically unlikely.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{
		MaxRetries:  8,
		BaseBackoff: sim.Microseconds(50),
		MaxBackoff:  sim.Milliseconds(10),
	}
}

// backoff returns the sleep before retry number attempt (0-based),
// doubling from BaseBackoff and saturating at MaxBackoff.
func (p RetryPolicy) backoff(attempt int) sim.Time {
	b := p.BaseBackoff
	if b <= 0 {
		b = sim.Microseconds(50)
	}
	for i := 0; i < attempt; i++ {
		b *= 2
		if p.MaxBackoff > 0 && b >= p.MaxBackoff {
			return p.MaxBackoff
		}
	}
	if p.MaxBackoff > 0 && b > p.MaxBackoff {
		b = p.MaxBackoff
	}
	return b
}

// ResilienceStats counts the runtime's fault-handling activity. It is the
// observability half of graceful degradation: a run that survived faults
// reports how.
type ResilienceStats struct {
	// Faults is the number of transient failures observed (before retrying).
	Faults int64
	// Retries is the number of re-attempts made.
	Retries int64
	// Timeouts is the number of operations that exceeded OpTimeout.
	Timeouts int64
	// Failovers is the number of leaf tasks re-routed to a sibling
	// processor because their home processor was offline.
	Failovers int64
	// GaveUp is the number of operations that exhausted MaxRetries.
	GaveUp int64
}

// Any reports whether any resilience machinery engaged.
func (s ResilienceStats) Any() bool {
	return s.Faults+s.Retries+s.Timeouts+s.Failovers+s.GaveUp > 0
}

// DeltaFrom returns the activity that happened since prev was captured.
func (s ResilienceStats) DeltaFrom(prev ResilienceStats) ResilienceStats {
	return ResilienceStats{
		Faults:    s.Faults - prev.Faults,
		Retries:   s.Retries - prev.Retries,
		Timeouts:  s.Timeouts - prev.Timeouts,
		Failovers: s.Failovers - prev.Failovers,
		GaveUp:    s.GaveUp - prev.GaveUp,
	}
}

// String renders a one-line summary.
func (s ResilienceStats) String() string {
	return fmt.Sprintf("faults %d | retries %d | timeouts %d | failovers %d | gave-up %d",
		s.Faults, s.Retries, s.Timeouts, s.Failovers, s.GaveUp)
}

// Resilience returns the runtime's cumulative fault-handling counters.
func (rt *Runtime) Resilience() ResilienceStats { return rt.res }

// NoteFailover records one leaf task re-routed to a sibling processor.
// Leaf schedulers (package hotspot's steal path) call it when an offline
// processor's work is absorbed elsewhere.
func (rt *Runtime) NoteFailover() { rt.res.Failovers++ }

// Faults returns the runtime's fault injector, nil when fault injection is
// off. Leaf schedulers use it to poll processor outages.
func (rt *Runtime) Faults() *fault.Injector { return rt.opts.Faults }

// timeoutError marks an operation that exceeded the per-op deadline; it is
// transient so the retry loop re-attempts it.
type timeoutError struct {
	what     string
	took     sim.Time
	deadline sim.Time
}

func (e *timeoutError) Error() string {
	return fmt.Sprintf("core: %s took %v, deadline %v", e.what, e.took, e.deadline)
}

// Transient marks the timeout as retryable.
func (e *timeoutError) Transient() bool { return true }

// faultTransfer consults the injector (if any) before a transfer on the
// src -> dst edge.
func (rt *Runtime) faultTransfer(p *sim.Proc, src, dst *Buffer, n int64) error {
	if rt.opts.Faults == nil {
		return nil
	}
	return rt.opts.Faults.Transfer(p, src.node.ID, dst.node.ID, n)
}

// withRetry runs op under the runtime's retry policy. Transient failures
// (injected faults, offline components, deadline overruns) are retried up
// to MaxRetries times with exponential backoff; an offline component's
// known recovery time extends the backoff so retries don't burn out before
// the outage ends. Backoff sleeps are accounted as runtime time. The moves
// and allocations wrapped here are idempotent, so re-running a timed-out
// (but completed) operation is safe.
func (rt *Runtime) withRetry(p *sim.Proc, what string, op func() error) error {
	for attempt := 0; ; attempt++ {
		start := p.Now()
		retry, backoff, err := rt.retryAfter(what, attempt, start, op())
		if !retry {
			return err
		}
		backoffStart := p.Now()
		p.Sleep(backoff)
		rt.chargeSpan(p, laneRuntime, trace.Runtime, spanBackoff, backoffStart, p.Now(), int64(attempt))
	}
}

// retryAfter is the retry policy's decision once attempt (0-based) of
// operation what, begun at start, has ended now with err: the deadline
// check, then for a transient failure the counters, the fault instant and
// either giving up or the backoff before the next attempt. It returns
// retry with the backoff to wait first, or the operation's final error
// (nil on success). withRetry and the streamed-move pump both drive their
// retries through it.
func (rt *Runtime) retryAfter(what string, attempt int, start sim.Time, err error) (retry bool, backoff sim.Time, _ error) {
	pol := rt.opts.Retry
	now := rt.engine.Now()
	if err == nil && pol.OpTimeout > 0 {
		if took := now - start; took > pol.OpTimeout {
			rt.res.Timeouts++
			err = &timeoutError{what: what, took: took, deadline: pol.OpTimeout}
		}
	}
	if err == nil || !fault.IsTransient(err) {
		return false, 0, err
	}
	rt.res.Faults++
	// what is a static per-call-site label ("move_data", "alloc"), so the
	// instant costs no allocation.
	rt.emitInstant(laneRuntime, what, now, int64(attempt))
	if attempt >= pol.MaxRetries {
		rt.res.GaveUp++
		return false, 0, fmt.Errorf("core: %s: giving up after %d attempt(s): %w", what, attempt+1, err)
	}
	rt.res.Retries++
	backoff = pol.backoff(attempt)
	var off *fault.OfflineError
	if errors.As(err, &off) && off.Until > now {
		// Wait out the outage rather than retrying into it.
		if wake := off.Until - now; wake > backoff {
			backoff = wake
		}
	}
	return true, backoff, nil
}
