package main

import (
	"errors"
	"fmt"
	"hash/fnv"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"time"

	nu "repro/northup"
)

// ratePoint is one step of the serve-open ladder: every tenant's base rate
// times mul, with arrivals generated for horizon virtual seconds.
type ratePoint struct {
	mul     float64
	horizon nu.Time
}

// serveLadder offers 1x to 8x of 140 jobs/s; each point admits at least 1000
// jobs, enough for a pooled p99 with ten jobs beyond it.
var serveLadder = []ratePoint{
	{1, 10 * nu.Second}, {2, 5 * nu.Second}, {4, 5 * nu.Second}, {8, 5 * nu.Second},
}

// serveBaseJPS is the total offered rate at 1x. The committed scenario
// offers 8x; every tenant's rate is scaled by the same factor.
const serveBaseJPS = 140

// serveOverloadMul is the first ladder point past saturation. There one
// rejection more or less flips the SLO outcome of many later jobs, so the
// point's goodput swings with the seed (0.4% to 27% of arrivals served in
// time over seeds 1-10); virtual_ops_per_s leaves it out.
const serveOverloadMul = 8

// serveSlice is the virtual-time width of one op_ms sample on serve-open.
const serveSlice = 100 * nu.Millisecond

// saturationSpec is the two-tenant saturation scenario, relative to the
// repository root: a batch tenant of GEMM and sort jobs and an interactive
// tenant of SpMV and HotSpot jobs sharing the SSD APU tree through two
// dispatch workers.
const saturationSpec = "specs/scenarios/saturation.json"

// loadSaturation parses the saturation scenario from the repository root,
// which is the working directory or, when run from this directory, its
// parent.
func loadSaturation() (*nu.Scenario, error) {
	data, err := os.ReadFile(saturationSpec)
	if errors.Is(err, fs.ErrNotExist) {
		data, err = os.ReadFile(filepath.Join("..", saturationSpec))
	}
	if err != nil {
		return nil, err
	}
	scn, err := nu.ParseScenario(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", saturationSpec, err)
	}
	return scn, nil
}

// serveRunner runs the open loop: each unit is one rate point of the ladder,
// cycling. Arrivals follow the scenario's seeded Poisson process in virtual
// time and latency is measured from each scheduled arrival, so the
// generator is never late. Every repeat of a rate point must reproduce the
// first run's job records exactly.
type serveRunner struct {
	seed    int64
	base    *nu.Scenario
	ladder  []ratePoint
	digest  map[int]uint64
	quality *serveQuality
}

func newServeRunner(seed int64, o options) (runner, error) {
	base, err := loadSaturation()
	if err != nil {
		return nil, err
	}
	ladder := serveLadder
	if o.serveShort {
		ladder = []ratePoint{{1, nu.Second / 2}}
	}
	q := &serveQuality{slo: map[string]nu.Time{}}
	for _, t := range base.Tenants {
		q.slo[t.Name] = t.SLO
		q.maxSLO = max(q.maxSLO, t.SLO)
	}
	return &serveRunner{seed: derive(seed, 2), base: base, ladder: ladder, digest: map[int]uint64{},
		quality: q}, nil
}

// scenario is the saturation scenario at one rate point: every tenant's
// rate scaled so that the total offered rate is p.mul times serveBaseJPS.
func (s *serveRunner) scenario(p ratePoint) *nu.Scenario {
	offered := 0.0
	for _, t := range s.base.Tenants {
		offered += t.Rate
	}
	scn := *s.base
	scn.Seed, scn.Duration = s.seed, p.horizon
	scn.Tenants = append([]nu.ScenarioTenant(nil), s.base.Tenants...)
	for i := range scn.Tenants {
		scn.Tenants[i].Rate *= p.mul * serveBaseJPS / offered
	}
	return &scn
}

func (s *serveRunner) cycle() int { return len(s.ladder) }

// warmUp serves one virtual second at 1x.
func (s *serveRunner) warmUp(acc *accum) {
	eng, err := nu.NewServeEngine(s.scenario(ratePoint{1, nu.Second}), nu.ServeOptions{Phantom: true})
	if err == nil {
		_, err = eng.Run()
	}
	if err != nil {
		acc.fail(err)
	}
}

// sliceMark is the host time at which the engine crossed a slice boundary,
// and how many jobs had completed by then.
type sliceMark struct {
	at   time.Time
	done int
}

func (s *serveRunner) op(i int, acc *accum, tr *tracer, pr *probe) {
	k := i % len(s.ladder)
	p := s.ladder[k]
	acc.units++
	acc.serve = s.quality
	root := tr.begin("op", -1)
	defer tr.end(root)

	b := tr.begin("build", root)
	eng, err := nu.NewServeEngine(s.scenario(p), nu.ServeOptions{Phantom: true})
	tr.end(b)
	if err != nil {
		acc.attempted++
		acc.fail(err)
		return
	}
	// A read-only callback at every slice boundary samples host time; it
	// touches no job state, so the schedule is unchanged.
	sim := eng.Runtime().Engine()
	marks := []sliceMark{{at: time.Now()}}
	var ticks int64
	next := serveSlice
	var tick func()
	tick = func() {
		marks = append(marks, sliceMark{time.Now(), len(eng.Records())})
		ticks++
		if next += serveSlice; next < p.horizon {
			sim.At(next, tick)
		}
	}
	sim.At(next, tick)

	r := tr.begin("run", root)
	start := time.Now()
	rep, err := eng.Run()
	end := time.Now()
	tr.endWithEngine(r, sim.Stats().Wall)
	acc.c.runWall += end.Sub(start)
	if err != nil {
		acc.attempted++
		acc.fail(err)
		return
	}
	recs := eng.Records()
	marks = append(marks, sliceMark{end, len(recs)})
	acc.c.addRuntime(eng.Runtime())
	acc.c.tickEvents += ticks
	if pr != nil {
		pr.fold(eng.Runtime(), eng.Runtime().Metrics(), nil)
	}

	v := tr.begin("verify", root)
	defer tr.end(v)
	failed := 0
	for _, rec := range recs {
		if rec.Err != "" {
			failed++
			if acc.firstErr == nil {
				acc.firstErr = fmt.Errorf("job %s/%d: %s", rec.Tenant, rec.ID, rec.Err)
			}
		}
	}
	d := recordDigest(recs)
	if want, ok := s.digest[k]; !ok {
		s.digest[k] = d
		arrivals := int64(0)
		for _, t := range rep.Tenants {
			arrivals += t.Arrivals
		}
		q := s.quality.add(p, arrivals, recs)
		if p.mul < serveOverloadMul {
			acc.virtNum += p.mul * serveBaseJPS * ratio(float64(q.withinSLO), float64(arrivals))
			acc.virtDen++
			acc.virtN++
		}
	} else if want != d {
		failed = len(recs)
		if acc.firstErr == nil {
			acc.firstErr = fmt.Errorf("rate %gx: job records differ from the first run with this seed", p.mul)
		}
	}
	acc.attempted += len(recs)
	acc.failed += failed
	acc.ops += len(recs) - failed
	for j := 1; j < len(marks); j++ {
		if n := marks[j].done - marks[j-1].done; n > 0 {
			acc.hostMS = append(acc.hostMS, float64(marks[j].at.Sub(marks[j-1].at).Nanoseconds())/1e6/float64(n))
		}
	}
}

// recordDigest fingerprints a job log: identities, virtual timestamps,
// result hashes and errors.
func recordDigest(recs []nu.ServeJobRecord) uint64 {
	h := fnv.New64a()
	for _, r := range recs {
		fmt.Fprintf(h, "%s/%d/%s/%d/%d/%d/%d/%x/%s\n", r.Tenant, r.ID, r.Workload, r.N,
			r.ArriveNS, r.StartNS, r.DoneNS, r.Hash, r.Err)
	}
	return h.Sum64()
}

// servePoint is the virtual-time service quality of one rate point.
type servePoint struct {
	p         ratePoint
	arrivals  int64
	withinSLO int
	// latMS and overSLO hold one entry per arrival; refused jobs count as
	// infinitely late.
	latMS, overSLO  []float64
	waitMS, svcMS   []float64
	admitted        int
	drainedByWindow bool
}

// serveQuality is the first ladder's service quality, a pure function of
// the seed.
type serveQuality struct {
	// slo is each tenant's latency objective, as the scenario gives it.
	slo    map[string]nu.Time
	maxSLO nu.Time
	points []*servePoint
}

func (q *serveQuality) add(p ratePoint, arrivals int64, recs []nu.ServeJobRecord) *servePoint {
	sp := &servePoint{p: p, arrivals: arrivals, admitted: len(recs), drainedByWindow: true}
	for _, r := range recs {
		lat := nu.Time(r.DoneNS - r.ArriveNS)
		slo := q.slo[r.Tenant]
		sp.latMS = append(sp.latMS, float64(lat)/1e6)
		sp.overSLO = append(sp.overSLO, float64(lat)/float64(slo))
		sp.waitMS = append(sp.waitMS, float64(r.StartNS-r.ArriveNS)/1e6)
		sp.svcMS = append(sp.svcMS, float64(r.DoneNS-r.StartNS)/1e6)
		if r.Err == "" && lat <= slo {
			sp.withinSLO++
		}
		if nu.Time(r.DoneNS) > p.horizon+q.maxSLO {
			sp.drainedByWindow = false
		}
	}
	for refused := arrivals - int64(len(recs)); refused > 0; refused-- {
		sp.latMS = append(sp.latMS, math.Inf(1))
		sp.overSLO = append(sp.overSLO, math.Inf(1))
	}
	q.points = append(q.points, sp)
	return sp
}

func (q *serveQuality) at(mul float64) *servePoint {
	for _, sp := range q.points {
		if sp.p.mul == mul {
			return sp
		}
	}
	return nil
}

// maxRate is the highest ladder rate whose p99 of latency over SLO is at
// most 1 (refused jobs missing) and whose queues drain within one SLO of
// the arrival horizon.
func (q *serveQuality) maxRate() float64 {
	best := 0.0
	for _, sp := range q.points {
		if percentile(sp.overSLO, 0.99) <= 1 && sp.drainedByWindow {
			best = max(best, sp.p.mul*serveBaseJPS)
		}
	}
	return best
}

// layer writes the serve per-layer metrics; a point missing from a
// shortened ladder reads 0.
func (q *serveQuality) layer(m map[string]float64) {
	if sp := q.at(1); sp != nil {
		m["serve.p99_ms.r1x"] = finite(percentile(sp.latMS, 0.99))
	}
	if sp := q.at(4); sp != nil {
		m["serve.p99_ms.r4x"] = finite(percentile(sp.latMS, 0.99))
		m["serve.goodput_jps.r4x"] = float64(sp.withinSLO) / sp.p.horizon.Seconds()
		m["serve.queue_wait_ms_p99.r4x"] = percentile(sp.waitMS, 0.99)
		m["serve.service_ms_p50.r4x"] = percentile(sp.svcMS, 0.50)
	}
	if sp := q.at(8); sp != nil {
		m["serve.goodput_jps.r8x"] = float64(sp.withinSLO) / sp.p.horizon.Seconds()
		m["serve.admit_share.r8x"] = ratio(float64(sp.admitted), float64(sp.arrivals))
	}
	m["serve.max_rate_jps"] = q.maxRate()
}

// notes summarizes the ladder for the human-readable table.
func (q *serveQuality) notes() []string {
	out := []string{"serve ladder (virtual time; generator lateness 0 by construction):"}
	for _, sp := range q.points {
		out = append(out, fmt.Sprintf("  %gx %4.0f jobs/s: arrivals %5d admitted %5d p99 %9.3f ms goodput %7.1f jobs/s",
			sp.p.mul, sp.p.mul*serveBaseJPS, sp.arrivals, sp.admitted,
			percentile(sp.latMS, 0.99), float64(sp.withinSLO)/sp.p.horizon.Seconds()))
	}
	return append(out, fmt.Sprintf("  max rate meeting the SLO: %g jobs/s", q.maxRate()))
}

// finite reports an infinite percentile (refused jobs) as the largest
// float64, which JSON can carry.
func finite(v float64) float64 {
	if math.IsInf(v, 1) {
		return math.MaxFloat64
	}
	return v
}
