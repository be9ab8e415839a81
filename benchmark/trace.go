package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"time"

	nu "repro/northup"
)

// span is one host-time interval the benchmark recorded around a facade
// call. Spans of one op share Op; Parent indexes the enclosing span (-1 for
// an op's root span).
type span struct {
	Workload string `json:"workload"`
	Op       int    `json:"op"`
	Name     string `json:"name"`
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
	Parent   int    `json:"parent"`
}

// tracer keeps spans in memory for the traced run. Its methods are no-ops
// on a nil tracer, which is how untraced ops run.
type tracer struct {
	t0       time.Time
	workload string
	op       int
	spans    []span
	// dispatchNS caches pingDispatch, which no workload changes.
	dispatchNS *[2]float64
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return -1
	}
	now := int64(time.Since(t.t0))
	t.spans = append(t.spans, span{Workload: t.workload, Op: t.op, Name: name,
		StartNS: now, EndNS: now, Parent: parent})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id].EndNS = int64(time.Since(t.t0))
}

// endWithEngine closes a "run" span and adds its synthesized "sim.engine"
// child: the engine's own wall time, placed at the end of the call, where
// the engine runs after the app has prepared its inputs.
func (t *tracer) endWithEngine(id int, engineWall time.Duration) {
	if t == nil {
		return
	}
	t.end(id)
	end := t.spans[id].EndNS
	t.spans = append(t.spans, span{Workload: t.workload, Op: t.op, Name: "sim.engine",
		StartNS: end - int64(engineWall), EndNS: end, Parent: id})
}

// writeSpans writes every recorded span as DIR/spans.json.
func (t *tracer) writeSpans(dir string) error {
	b, err := json.MarshalIndent(t.spans, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "spans.json"), append(b, '\n'), 0o644)
}

// writeSelfTimes prints, per span name of one workload, the total and the
// self time: the span's duration minus the part its children cover.
func (t *tracer) writeSelfTimes(w io.Writer, workload string) {
	total := map[string]int64{}
	self := map[string]int64{}
	for _, s := range t.spans {
		if s.Workload != workload {
			continue
		}
		d := s.EndNS - s.StartNS
		total[s.Name] += d
		self[s.Name] += d
		if s.Parent >= 0 {
			self[t.spans[s.Parent].Name] -= d
		}
	}
	names := make([]string, 0, len(total))
	for n := range total {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
	fmt.Fprintf(w, "  span self time (host):\n  %-12s %12s %12s\n", "span", "total_ms", "self_ms")
	for _, n := range names {
		fmt.Fprintf(w, "  %-12s %12.3f %12.3f\n", n, float64(total[n])/1e6, float64(self[n])/1e6)
	}
}

// probe gathers the virtual-time layer view of a workload: one untimed op per
// distinct config, run with a metrics registry and an event recorder
// attached. Busy shares and moved bytes come from the registry, the
// critical-path shares from the recorder's event stream.
type probe struct {
	ops     int
	busy    map[string]float64 // ns per busy category
	moved   float64            // bytes
	crit    map[string]float64 // ns of critical path per category ("idle" too)
	critLen float64
}

func newProbe() *probe { return &probe{busy: map[string]float64{}, crit: map[string]float64{}} }

// fold adds one probed runtime's registry and events.
func (p *probe) fold(rt *nu.Runtime, reg *nu.MetricsRegistry, rec *nu.TraceRecorder) {
	rt.SyncMetrics()
	for name, v := range reg.Flatten() {
		switch {
		case strings.HasPrefix(name, `northup_busy_ns_total{cat="`):
			cat := strings.TrimSuffix(strings.TrimPrefix(name, `northup_busy_ns_total{cat="`), `"}`)
			p.busy[cat] += v
		case strings.HasPrefix(name, "northup_moved_bytes_total"):
			p.moved += v
		}
	}
	if rec == nil {
		return
	}
	// Structural task spans charge no busy time (their category is
	// negative) and would cover the whole path; keep the charged spans.
	var charged []nu.TraceEvent
	for _, ev := range rec.Events() {
		if ev.Cat >= 0 {
			charged = append(charged, ev)
		}
	}
	path := nu.TraceCriticalPath(charged, nu.TraceSummaryOptions{})
	for _, s := range path.Segments {
		cat := "idle"
		if !s.Idle {
			cat = s.Span.Cat.String()
		}
		p.crit[cat] += float64(s.Dur())
	}
	p.critLen += float64(path.Length())
}

// layer writes the probe's shares into m.
func (p *probe) layer(m map[string]float64) {
	var busySum float64
	for _, v := range p.busy {
		busySum += v
	}
	for _, cat := range []string{"io", "gpu", "cpu", "transfer", "runtime"} {
		m["core.busy_share."+cat] = ratio(p.busy[cat], busySum)
	}
	for _, cat := range []string{"io", "gpu", "idle"} {
		m["core.critpath_share."+cat] = ratio(p.crit[cat], p.critLen)
	}
	m["core.moved_mb_per_op"] = ratio(p.moved, float64(p.ops)) / 1e6
}

// dispatch returns pingDispatch's result, measured once per tracer.
func (t *tracer) dispatch() (procNS, callbackNS float64) {
	if t.dispatchNS == nil {
		p, c := pingDispatch()
		t.dispatchNS = &[2]float64{p, c}
	}
	return t.dispatchNS[0], t.dispatchNS[1]
}

// pingDispatch measures the engine's dispatch cost on each path with a
// facade-level ping loop: one process sleeping one nanosecond at a time, and
// one self-rescheduling inline callback. It returns ns per event, the
// median of five rounds.
func pingDispatch() (procNS, callbackNS float64) {
	const n = 20_000
	var procs, cbs []float64
	for r := 0; r < 5; r++ {
		e := nu.NewEngine()
		e.Spawn("ping", func(p *nu.Proc) {
			for i := 0; i < n; i++ {
				p.Sleep(1)
			}
		})
		if err := e.Run(); err == nil {
			st := e.Stats()
			procs = append(procs, float64(st.Wall.Nanoseconds())/float64(st.Events))
		}
		e = nu.NewEngine()
		left := 10 * n
		var tick func()
		tick = func() {
			if left--; left > 0 {
				e.After(1, tick)
			}
		}
		e.After(1, tick)
		if err := e.Run(); err == nil {
			st := e.Stats()
			cbs = append(cbs, float64(st.Wall.Nanoseconds())/float64(st.Events))
		}
	}
	return percentile(procs, 0.5), percentile(cbs, 0.5)
}

// cpuShares runs `go tool pprof -top` on a CPU profile and returns each
// module's share of the flat (leaf-frame) samples.
func cpuShares(profile string) (map[string]float64, error) {
	gobin, err := exec.LookPath("go")
	if err != nil {
		return nil, fmt.Errorf("go is not on PATH: %w", err)
	}
	var out, stderr bytes.Buffer
	cmd := exec.Command(gobin, "tool", "pprof", "-top", "-nodecount=0",
		"-nodefraction=0", "-edgefraction=0", profile)
	cmd.Stdout, cmd.Stderr = &out, &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go tool pprof: %v: %s", err, strings.TrimSpace(stderr.String()))
	}
	return parsePprofTop(out.String())
}

// parsePprofTop sums the flat column of `pprof -top` output by module.
func parsePprofTop(text string) (map[string]float64, error) {
	flat := map[string]float64{}
	var total float64
	inTable := false
	for _, line := range strings.Split(text, "\n") {
		f := strings.Fields(line)
		if len(f) >= 2 && f[0] == "flat" && f[1] == "flat%" {
			inTable = true
			continue
		}
		if !inTable || len(f) < 6 {
			continue
		}
		d, err := parseFlat(f[0])
		if err != nil {
			return nil, fmt.Errorf("pprof line %q: %v", line, err)
		}
		flat[pkgOfFunc(f[5])] += d
		total += d
	}
	if !inTable {
		return nil, fmt.Errorf("no pprof table in output")
	}
	shares := make(map[string]float64, len(cpuShareModules))
	for _, m := range cpuShareModules {
		shares[m] = ratio(flat[m], total)
	}
	return shares, nil
}

// parseFlat parses a pprof duration such as "10ms", "1.25s" or "0".
func parseFlat(s string) (float64, error) {
	if s == "0" {
		return 0, nil
	}
	d, err := time.ParseDuration(s)
	return float64(d), err
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
