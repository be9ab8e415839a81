package obs

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/sim"
)

// TestReadThroughSnapshotReadsSource checks a read-through counter and
// gauge export whatever their source holds at snapshot time, in every
// view: Snapshot, Prometheus text and JSON.
func TestReadThroughSnapshotReadsSource(t *testing.T) {
	r := NewRegistry()
	hits := int64(0)
	r.CounterFunc("hits_total", "cache hits", func() int64 { return hits })
	r.GaugeFunc("hit_rate", "hits per fetch", func() float64 { return float64(hits) / 8 })

	hits = 3
	flat := r.Flatten()
	if flat["hits_total"] != 3 || flat["hit_rate"] != 0.375 {
		t.Fatalf("snapshot after 3 hits: %v", flat)
	}
	hits = 5
	var prom bytes.Buffer
	if err := r.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"hits_total 5\n", "hit_rate 0.625\n", "# TYPE hits_total counter\n"} {
		if !strings.Contains(prom.String(), want) {
			t.Errorf("Prometheus export lacks %q:\n%s", want, prom.String())
		}
	}
	var js bytes.Buffer
	if err := r.WriteJSON(&js, nil); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(js.String(), `"value": 5`) {
		t.Errorf("JSON export does not read the source:\n%s", js.String())
	}
}

// TestReadThroughSampledAtTick checks the sampler reads a read-through
// gauge at each tick, exactly like a gauge Set just before the tick.
func TestReadThroughSampledAtTick(t *testing.T) {
	r := NewRegistry()
	depth := 0.0
	r.GaugeFunc("depth", "queue depth", func() float64 { return depth })
	s := NewSampler(r, SamplerOptions{Tick: 10})
	for now := sim.Time(0); now <= 30; now += 10 {
		depth = float64(now) / 10
		s.Observe(now)
	}
	got := s.Series()
	if len(got) != 1 || len(got[0].Points) != 4 {
		t.Fatalf("series = %+v", got)
	}
	for i, p := range got[0].Points {
		if p.V != float64(i) {
			t.Fatalf("point %d = %v, want %d", i, p.V, i)
		}
	}
}

// TestReadThroughMergeCopiesCurrentValue checks merging a registry holding
// read-through instruments adds their sources' current values into plain
// instruments, so later source changes do not leak into the merged copy.
func TestReadThroughMergeCopiesCurrentValue(t *testing.T) {
	src := NewRegistry()
	total := int64(4)
	src.CounterFunc("ops_total", "ops", func() int64 { return total })
	src.GaugeFunc("ratio", "a ratio", func() float64 { return 0.5 })

	dst := NewRegistry()
	dst.Counter("ops_total", "ops").Add(1)
	dst.Merge(src)
	total = 100
	flat := dst.Flatten()
	if flat["ops_total"] != 5 || flat["ratio"] != 0.5 {
		t.Fatalf("merged = %v, want ops_total 5, ratio 0.5", flat)
	}
}

// TestReadThroughMisusePanics checks the registry refuses the ways a
// read-through instrument could silently diverge from its source: adding
// to it through a plain handle, registering it twice, or merging into it.
func TestReadThroughMisusePanics(t *testing.T) {
	read := func() int64 { return 1 }
	for name, fn := range map[string]func(r *Registry){
		"plain handle": func(r *Registry) {
			r.CounterFunc("c_total", "c", read)
			r.Counter("c_total", "c")
		},
		"registered twice": func(r *Registry) {
			r.GaugeFunc("g", "g", func() float64 { return 0 })
			r.GaugeFunc("g", "g", func() float64 { return 1 })
		},
		"merge into": func(r *Registry) {
			r.CounterFunc("c_total", "c", read)
			o := NewRegistry()
			o.Counter("c_total", "c").Inc()
			r.Merge(o)
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			fn(NewRegistry())
		}()
	}
}
