package serve

import (
	"fmt"
	"hash/fnv"
	"math/rand"

	"repro/internal/core"
	"repro/internal/journey"
	"repro/internal/obs"
	"repro/internal/ops"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/trace"
)

// RunOptions tunes one engine run.
type RunOptions struct {
	// Phantom runs timing-only: buffers carry no payload bytes and job
	// result hashes fingerprint unwritten (all-zero) files. Latencies are
	// bit-identical to a functional run.
	Phantom bool
	// WallStats adds wall-clock fields (events/sec, wall ms) to the
	// report's engine stats. Off by default so reports stay byte-identical
	// across runs; the deterministic counts (events, callbacks, procs) are
	// always reported.
	WallStats bool
	// Trace forces the trace recorder on even without the ops plane, so a
	// run can be exported as a Chrome trace (northup-serve -trace-out).
	// Tracing is observation only; the schedule is unchanged.
	Trace bool
}

// JobRecord is the per-job outcome log, in completion order. Tests use it
// to compare runs job-by-job (bit-exact hashes, exact virtual timestamps).
type JobRecord struct {
	Tenant   string `json:"tenant"`
	ID       int    `json:"id"`
	Workload string `json:"workload"`
	N        int    `json:"n"`
	ArriveNS int64  `json:"arrive_ns"`
	StartNS  int64  `json:"start_ns"`
	DoneNS   int64  `json:"done_ns"`
	Hash     uint64 `json:"hash"`
	Err      string `json:"err,omitempty"`
}

// latencyBuckets are the fixed serve histogram bounds (ns): 100µs to 100s
// in a 1-2-5 ladder, so percentile extraction is deterministic and merges
// stay associative.
var latencyBuckets = []int64{
	100e3, 200e3, 500e3,
	1e6, 2e6, 5e6,
	10e6, 20e6, 50e6,
	100e6, 200e6, 500e6,
	1e9, 2e9, 5e9,
	10e9, 20e9, 50e9,
	100e9,
}

// tenantState is one tenant's live serving state plus its private metrics
// registry (merged on demand by MergedRegistry).
type tenantState struct {
	idx  int
	spec *Tenant
	reg  *obs.Registry
	q    *sched.Deque[*job]
	rng  *rand.Rand

	quota    int64   // staging quota in bytes
	inflight int64   // footprint of dispatched, unfinished jobs
	vft      float64 // weighted-fair-queueing virtual finish time
	mixCum   []float64
	jobSeq   int
	jnyAcc   float64 // journey sampling stride accumulator (no RNG draws)

	rejReason map[string]*obs.Counter // lazy, keyed by reject reason; journeys only

	arrivals   *obs.Counter
	admitted   *obs.Counter
	rejQuota   *obs.Counter
	rejBacklog *obs.Counter
	completed  *obs.Counter
	jobErrors  *obs.Counter
	sloViol    *obs.Counter
	latHist    *obs.Histogram
	waitHist   *obs.Histogram
	depthG     *obs.Gauge
	inflightG  *obs.Gauge

	depthSlot *core.QueueDepthSlot
}

// Engine executes one scenario: per-tenant Poisson admitters feed
// per-tenant FIFO queues, and a fixed pool of dispatch workers drains them
// by weighted-fair queueing, running each admitted job as a root task on
// the one shared runtime.
type Engine struct {
	scn  *Scenario
	opts RunOptions

	eng  *sim.Engine
	tree *topo.Tree
	rt   *core.Runtime
	dram *topo.Node

	tenants []*tenantState
	runReg  *obs.Registry // the shared runtime's own registry

	// Live operations plane (ops.go), nil unless the scenario enables it.
	plane    *ops.Plane
	rec      *trace.Recorder
	twatch   map[string]*tenantWatch
	ruleFast map[string]sim.Time // rule name -> fast window, for attribution

	// Journey recorder (journeys.go), nil unless the scenario enables it.
	// Everything it feeds — sampling, charge feeding, exemplars, reject
	// instants — is observation only and gated on jny != nil, so a run with
	// journeys off is byte-identical to one that never had the layer.
	jny  *journey.Recorder
	feed *journeyFeed // the journeys' runtime subscription, with jny

	idle         []*sim.Latch // parked dispatch workers
	arrivalsOpen int
	outstanding  int    // admitted but not yet finished jobs
	detachQueues func() // releases the staging node's queue monitors

	records []JobRecord
	ran     bool
}

// New builds an engine for a scenario. Defaults are applied to a private
// copy first, so the caller's scenario is not mutated and may be reused
// across engines.
func New(scn *Scenario, opts RunOptions) (*Engine, error) {
	scn = scn.withDefaults()
	if err := scn.Validate(); err != nil {
		return nil, err
	}
	eng := sim.NewEngine()
	storage := topo.SSD
	if scn.Topology.Preset == "apu-hdd" {
		storage = topo.HDD
	}
	tree := topo.APU(eng, topo.APUConfig{
		Storage:    storage,
		StorageMiB: scn.Topology.StorageMiB,
		DRAMMiB:    scn.Topology.DRAMMiB,
		WithCPU:    true,
	})
	runReg := obs.NewRegistry()
	// The ops plane's health attribution reads the trace event stream, so
	// tracing rides along whenever the plane is on. Tracing is observation
	// only — it never alters the schedule — so ops scenarios keep the same
	// job timeline they would have without it.
	var rec *trace.Recorder
	if scn.OpsEnabled() || opts.Trace {
		rec = trace.NewRecorder(trace.Options{MaxEvents: scn.Ops.TraceEvents})
	}
	rt := core.NewRuntime(eng, tree, core.Options{
		Phantom: opts.Phantom,
		Metrics: runReg,
		Trace:   rec,
	})
	e := &Engine{
		scn:      scn,
		opts:     opts,
		eng:      eng,
		tree:     tree,
		rt:       rt,
		dram:     tree.Node(1),
		runReg:   runReg,
		rec:      rec,
		ruleFast: map[string]sim.Time{},
	}
	if scn.Journeys.Enabled {
		e.jny = journey.NewRecorder(scn.Seed, scn.Journeys.MaxSegments)
		e.feed = &journeyFeed{jobs: map[*sim.Proc]*journey.Job{}}
		rt.Subscribe(e.feed)
	}
	for i := range scn.Tenants {
		e.tenants = append(e.tenants, e.newTenantState(i, &scn.Tenants[i]))
	}
	if scn.OpsEnabled() {
		if err := e.initOps(); err != nil {
			return nil, err
		}
	}
	return e, nil
}

// tenantSeed derives a tenant's RNG seed from the scenario seed and the
// tenant's name (not its position, so reordering tenants in the file does
// not change anyone's traffic).
func tenantSeed(scnSeed int64, name string) int64 {
	h := fnv.New64a()
	h.Write([]byte(name))
	return scnSeed ^ int64(h.Sum64())
}

func (e *Engine) newTenantState(idx int, spec *Tenant) *tenantState {
	reg := obs.NewRegistry()
	lbl := obs.L("tenant", spec.Name)
	t := &tenantState{
		idx:   idx,
		spec:  spec,
		reg:   reg,
		q:     sched.NewDeque[*job]("serve-" + spec.Name),
		rng:   rand.New(rand.NewSource(tenantSeed(e.scn.Seed, spec.Name))),
		quota: spec.QuotaBytes(),

		arrivals:   reg.Counter("northup_serve_arrivals_total", "jobs offered by the tenant's arrival process", lbl),
		admitted:   reg.Counter("northup_serve_admitted_total", "jobs accepted into the tenant's queue", lbl),
		rejQuota:   reg.Counter("northup_serve_rejected_total", "jobs rejected at admission", lbl, obs.L("reason", "quota")),
		rejBacklog: reg.Counter("northup_serve_rejected_total", "jobs rejected at admission", lbl, obs.L("reason", "backlog")),
		completed:  reg.Counter("northup_serve_completed_total", "jobs finished successfully", lbl),
		jobErrors:  reg.Counter("northup_serve_job_errors_total", "jobs that failed while running", lbl),
		sloViol:    reg.Counter("northup_serve_slo_violations_total", "completions slower than the tenant SLO", lbl),
		latHist:    reg.Histogram("northup_serve_latency_ns", "arrival-to-completion latency", latencyBuckets, lbl),
		waitHist:   reg.Histogram("northup_serve_wait_ns", "arrival-to-dispatch queueing delay", latencyBuckets, lbl),
		depthG:     reg.Gauge("northup_serve_queue_depth", "admitted jobs waiting for dispatch", lbl),
		inflightG:  reg.Gauge("northup_serve_inflight_bytes", "staging footprint of running jobs", lbl),
	}
	// Weight prefix sums for mix draws.
	cum := 0.0
	for _, m := range spec.Mix {
		cum += m.Weight
		t.mixCum = append(t.mixCum, cum)
	}
	// The tenant queue publishes its depth both as a tenant-labelled serve
	// gauge and — through an additive slot — into the shared runtime's
	// per-node northup_queue_depth, alongside any in-job stealing queues.
	t.depthSlot = e.rt.NewQueueDepthSlot(e.dram.ID)
	depth := func() {
		t.depthG.Set(float64(t.q.Len()))
		t.depthSlot.Set(int64(t.q.Len()))
	}
	t.q.OnPush = depth
	t.q.OnPop = depth
	t.q.OnSteal = depth
	return t
}

// pickMix draws one mix entry by weight from the tenant RNG.
func (t *tenantState) pickMix() MixEntry {
	total := t.mixCum[len(t.mixCum)-1]
	x := t.rng.Float64() * total
	for i, c := range t.mixCum {
		if x < c {
			return t.spec.Mix[i]
		}
	}
	return t.spec.Mix[len(t.spec.Mix)-1]
}

// Run executes the scenario to completion — every tenant's arrival process
// exhausted and every admitted job finished — and returns the report.
// An Engine runs once.
func (e *Engine) Run() (*Report, error) {
	if err := e.start(); err != nil {
		return nil, err
	}
	if err := e.eng.Run(); err != nil {
		e.detach()
		return nil, fmt.Errorf("serve: scenario %q: %w", e.scn.Name, err)
	}
	return e.finish(), nil
}

// start arms the scenario's event machinery without running it: tenant
// queues attach to the staging node, arrival chains and workers launch,
// and — when the ops plane is on — its evaluation ticks arm. The live
// server uses start/RunUntil/finish to slice the same run across wall
// time; Run is start + one full engine run + finish.
func (e *Engine) start() error {
	if e.ran {
		return fmt.Errorf("serve: engine already ran")
	}
	e.ran = true

	// Tenant queues are visible on the staging node for the lifetime of
	// the run, next to any queues the jobs themselves attach.
	var monitors []sched.Monitor
	for _, t := range e.tenants {
		monitors = append(monitors, t.q)
	}
	e.detachQueues = e.dram.AttachQueues(monitors...)

	// Arrival processes ride the engine's callback fast path: each tenant is
	// a self-rescheduling timer, not a goroutine — an arrival draws the next
	// gap, admits, and re-arms, all inline in the dispatch loop. The At(0)
	// start events claim the same schedule slots the old Spawn start events
	// did, and each tick draws from the tenant RNG in the same order the
	// blocking loop did, so traffic is byte-identical to the proc version.
	e.arrivalsOpen = len(e.tenants)
	for _, t := range e.tenants {
		e.eng.At(0, e.startArrivals(t))
	}
	for w := 0; w < e.scn.Workers; w++ {
		w := w
		e.eng.Spawn(fmt.Sprintf("serve-worker-%d", w), func(p *sim.Proc) {
			e.runWorker(p)
		})
	}
	if e.plane != nil {
		e.armOpsTicks()
	}
	return nil
}

// finish settles the drained run: a final plane tick at the drain instant
// (deduplicated if a step tick already landed there), depth slots close,
// queues detach, and the report is built.
func (e *Engine) finish() *Report {
	if e.plane != nil {
		e.plane.Tick(e.eng.Now())
	}
	for _, t := range e.tenants {
		t.depthSlot.Close()
	}
	e.detach()
	return e.buildReport()
}

// detach releases the staging node's queue monitors, once.
func (e *Engine) detach() {
	if e.detachQueues != nil {
		e.detachQueues()
		e.detachQueues = nil
	}
}

// startArrivals builds one tenant's open-loop Poisson arrival process as a
// callback chain: the returned start callback arms the first gap, and every
// subsequent tick admits one job and re-arms. The draw/check/admit order
// matches the old blocking loop exactly — next-gap draw, duration cutoff,
// then admission at the wake instant — so the schedule is unchanged.
func (e *Engine) startArrivals(t *tenantState) func() {
	count := 0
	var tick func()
	arm := func() {
		if t.spec.MaxJobs > 0 && count >= t.spec.MaxJobs {
			e.closeArrivals()
			return
		}
		dt := sim.Time(t.rng.ExpFloat64() / t.spec.Rate * float64(sim.Second))
		if e.scn.Duration > 0 && e.eng.Now()+dt > e.scn.Duration {
			e.closeArrivals()
			return
		}
		e.eng.After(dt, tick)
	}
	tick = func() {
		count++
		e.admit(t)
		arm()
	}
	return arm
}

// closeArrivals retires one tenant's arrival process; when the last one
// closes, parked workers are released so they can observe the drain.
func (e *Engine) closeArrivals() {
	e.arrivalsOpen--
	if e.arrivalsOpen == 0 {
		e.wakeAll()
	}
}

// admit runs admission control for one arrival: plan the job against the
// tenant quota, apply the backlog cap, and enqueue or reject.
func (e *Engine) admit(t *tenantState) {
	t.arrivals.Inc()
	mix := t.pickMix()
	seed := t.rng.Int63()
	plan, reason, err := planJob(mix, t.quota)
	if err != nil {
		t.rejQuota.Inc()
		e.noteReject(t, reason)
		return
	}
	if t.q.Len() >= t.spec.MaxQueue {
		t.rejBacklog.Inc()
		e.noteReject(t, rejectBacklog)
		return
	}
	jb := &job{
		tenant: t.spec.Name,
		id:     t.jobSeq,
		mix:    mix,
		seed:   seed,
		arrive: e.eng.Now(),
		plan:   plan,
	}
	t.jobSeq++
	t.admitted.Inc()
	// Sample before the push so the journey's "behind" edge reflects the
	// jobs already queued ahead of this one.
	if e.jny != nil {
		e.sampleJourney(t, jb)
	}
	t.q.PushTail(jb)
	e.outstanding++
	e.wakeOne()
}

// pickJob selects the next dispatchable job: among tenants whose oldest
// queued job fits their remaining quota, the one with the smallest
// weighted-fair virtual finish time (ties to the lowest tenant index).
// Per-tenant order is strictly FIFO — a head that does not fit holds the
// tenant back until in-flight work retires.
func (e *Engine) pickJob() (*tenantState, *job) {
	var best *tenantState
	for _, t := range e.tenants {
		head, ok := t.q.PeekHead()
		if !ok || t.inflight+head.plan.Footprint > t.quota {
			continue
		}
		if best == nil || t.vft < best.vft {
			best = t
		}
	}
	if best == nil {
		return nil, nil
	}
	jb, _ := best.q.StealHead()
	return best, jb
}

// runWorker is one dispatch slot: it drains queues by WFQ order, parking
// on a latch when nothing is dispatchable.
func (e *Engine) runWorker(p *sim.Proc) {
	for {
		t, jb := e.pickJob()
		if jb == nil {
			if e.arrivalsOpen == 0 && e.outstanding == 0 {
				return
			}
			l := sim.NewLatch(e.eng)
			e.idle = append(e.idle, l)
			l.Wait(p)
			continue
		}
		e.dispatch(p, t, jb)
	}
}

// dispatch charges the tenant's WFQ account, runs the job as a root task
// on the shared runtime, and settles metrics and records at completion.
func (e *Engine) dispatch(p *sim.Proc, t *tenantState, jb *job) {
	t.inflight += jb.plan.Footprint
	t.inflightG.Set(float64(t.inflight))
	t.vft += float64(jb.plan.WorkBytes) / t.spec.Weight

	start := p.Now()
	t.waitHist.Observe(int64(start - jb.arrive))
	if jb.jny != nil {
		jb.jny.Dispatched(start)
	}

	body := jb.body(e)
	var hash uint64
	name := fmt.Sprintf("serve:%s-j%04d-%s", jb.tenant, jb.id, jb.mix.Workload)
	join := e.rt.Start(name, func(c *core.Ctx) error {
		// The job runs on its own fresh proc, so keying its journey by that
		// proc feeds it exactly the charges this job incurs — a pure read
		// of the observation stream, invisible to the schedule.
		if jb.jny != nil {
			e.feed.jobs[c.Proc()] = jb.jny
			defer delete(e.feed.jobs, c.Proc())
		}
		h, err := body(c)
		hash = h
		return err
	})
	err := join.WaitOn(p)
	done := p.Now()

	lat := int64(done - jb.arrive)
	if jb.jny != nil {
		jb.jny.Finish(done, err != nil)
		e.jny.Complete(jb.jny)
		t.latHist.ObserveExemplar(lat, jb.jny.TraceID)
	} else {
		t.latHist.Observe(lat)
	}
	if err != nil {
		t.jobErrors.Inc()
	} else {
		t.completed.Inc()
		if t.spec.SLO > 0 && lat > int64(t.spec.SLO) {
			t.sloViol.Inc()
		}
	}
	rec := JobRecord{
		Tenant:   jb.tenant,
		ID:       jb.id,
		Workload: jb.mix.Workload,
		N:        jb.mix.N,
		ArriveNS: int64(jb.arrive),
		StartNS:  int64(start),
		DoneNS:   int64(done),
		Hash:     hash,
	}
	if err != nil {
		rec.Err = err.Error()
	}
	e.records = append(e.records, rec)

	t.inflight -= jb.plan.Footprint
	t.inflightG.Set(float64(t.inflight))
	e.outstanding--
	// Retired footprint may unblock any tenant's head (and the drain
	// condition), so every parked worker gets to re-evaluate.
	e.wakeAll()
}

// wakeOne releases one parked worker, if any.
func (e *Engine) wakeOne() {
	if n := len(e.idle); n > 0 {
		l := e.idle[n-1]
		e.idle = e.idle[:n-1]
		l.Fire()
	}
}

// wakeAll releases every parked worker.
func (e *Engine) wakeAll() {
	idle := e.idle
	e.idle = nil
	for _, l := range idle {
		l.Fire()
	}
}

// Records returns the per-job outcome log in completion order.
func (e *Engine) Records() []JobRecord { return e.records }

// Runtime exposes the shared runtime (tests inspect its metrics registry).
func (e *Engine) Runtime() *core.Runtime { return e.rt }

// Now returns the engine's current virtual time.
func (e *Engine) Now() sim.Time { return e.eng.Now() }

// MergedRegistry merges the shared runtime's registry and every tenant's
// registry into one fresh registry, in deterministic (tenant declaration)
// order. obs merging is associative and commutative, so any merge order
// yields the same totals — the determinism property test holds serve to
// that, mirroring Cluster.MergedMetrics.
func (e *Engine) MergedRegistry() *obs.Registry {
	m := obs.NewRegistry()
	m.Merge(e.runReg)
	for _, t := range e.tenants {
		m.Merge(t.reg)
	}
	if e.plane != nil {
		m.Merge(e.plane.Registry())
	}
	return m
}

// TenantRegistry returns the named tenant's private registry, or nil.
func (e *Engine) TenantRegistry(name string) *obs.Registry {
	for _, t := range e.tenants {
		if t.spec.Name == name {
			return t.reg
		}
	}
	return nil
}
