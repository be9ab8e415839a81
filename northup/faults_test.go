package northup_test

import (
	"strings"
	"testing"

	"repro/northup"
)

func TestParseFaultsFullSpec(t *testing.T) {
	p, err := northup.ParseFaults(
		"seed=42,rate=0.05,delay-rate=0.1,delay-us=250,alloc-rate=0.02," +
			"offline=1/gpu:2:5,offline=0:10:20")
	if err != nil {
		t.Fatal(err)
	}
	c := p.Config
	if c.Seed != 42 || c.TransferFailRate != 0.05 || c.TransferDelayRate != 0.1 ||
		c.AllocFailRate != 0.02 {
		t.Fatalf("parsed config %+v", c)
	}
	if c.TransferDelay != 250*northup.Microsecond {
		t.Fatalf("delay = %v", c.TransferDelay)
	}
	if len(p.Outages) != 2 {
		t.Fatalf("parsed %d outages", len(p.Outages))
	}
	o := p.Outages[0]
	if o.Node != 1 || o.Class != northup.ProcClassGPU ||
		o.Window.From != 2*northup.Millisecond || o.Window.Until != 5*northup.Millisecond {
		t.Fatalf("outage[0] = %+v", o)
	}
	if p.Outages[1].Class != "" || p.Outages[1].Node != 0 {
		t.Fatalf("outage[1] = %+v", p.Outages[1])
	}
}

func TestParseFaultsRejectsGarbage(t *testing.T) {
	for _, tc := range []struct {
		spec, want string // want: a fragment the message must carry
	}{
		{"seed", "not key=value"},
		{"tempo=1", "unknown key"},
		{"rate=1.5", "outside [0,1]"},
		{"rate=x", "bad rate"},
		{"rate=NaN", "rate=\"NaN\""},
		{"delay-rate=NaN", "delay-rate"},
		{"alloc-rate=-0.1", "alloc-rate"},
		{"seed=1e9", "bad seed"},
		{"delay-us=-3", "must be positive"},
		{"delay-us=NaN", "delay-us"},
		{"delay-us=1e300", "delay-us=\"1e300\": 1e+300 overflows"},
		{"delay-us=+Inf", "delay-us"},
		{"delay-us=1e-9", "rounds to zero"},
		{"offline=1:5", "NODE[/CLASS]"},
		{"offline=1/tpu:0:5", "unknown processor class"},
		{"offline=1/cpu:0:2", "no scheduler honours CPU outages"},
		{"offline=banana:0:5", "bad node"},
		{"offline=1:5:5", "empty window"},
		{"offline=1/gpu:bad:5", "bad from-ms"},
		{"offline=1/gpu:0:worse", "bad until-ms"},
		{"offline=1:NaN:3", "from-ms \"NaN\""},
		{"offline=1:-5:3", "from-ms \"-5\": -5 is before time 0"},
		{"offline=1:0:1e300", "until-ms \"1e300\": 1e+300 overflows"},
		{"offline=1:0:NaN", "until-ms \"NaN\""},
		{"offline=1:-Inf:3", "from-ms"},
	} {
		_, err := northup.ParseFaults(tc.spec)
		if err == nil {
			t.Errorf("ParseFaults(%q) accepted", tc.spec)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("ParseFaults(%q) = %q, want it to mention %q", tc.spec, err, tc.want)
		}
	}
}

// FuzzParseFaults holds every accepted plan to what the injector and the
// schedulers can honour: finite rates in [0,1], a non-negative delay, and
// outage windows with 0 <= From < Until on a whole node or its GPU.
func FuzzParseFaults(f *testing.F) {
	for _, seed := range []string{
		"seed=42,rate=0.05,delay-rate=0.1,delay-us=250,alloc-rate=0.02,offline=1/gpu:2:5,offline=0:10:20",
		"rate=NaN", "delay-us=1e300", "offline=1:NaN:3", "offline=1:-5:3",
		"offline=1/cpu:0:2", "offline=1:0:1e300", " seed=7 , ,rate=0.5,",
		"delay-us=0.0004", "offline=2/gpu:0.5:9.2e12",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		p, err := northup.ParseFaults(spec)
		if err != nil {
			return
		}
		c := p.Config
		for name, r := range map[string]float64{"rate": c.TransferFailRate,
			"delay-rate": c.TransferDelayRate, "alloc-rate": c.AllocFailRate} {
			if !(r >= 0 && r <= 1) {
				t.Fatalf("%q: accepted %s %v", spec, name, r)
			}
		}
		if c.TransferDelay < 0 {
			t.Fatalf("%q: accepted delay %v", spec, c.TransferDelay)
		}
		for _, o := range p.Outages {
			if o.Window.From < 0 || o.Window.From >= o.Window.Until {
				t.Fatalf("%q: accepted window %+v", spec, o.Window)
			}
			if o.Class != "" && o.Class != northup.ProcClassGPU {
				t.Fatalf("%q: accepted class %q", spec, o.Class)
			}
		}
	})
}

func TestParseFaultsIgnoresEmptyFields(t *testing.T) {
	p, err := northup.ParseFaults(" seed=7 , ,rate=0.5,")
	if err != nil {
		t.Fatal(err)
	}
	if p.Config.Seed != 7 || p.Config.TransferFailRate != 0.5 {
		t.Fatalf("parsed %+v", p.Config)
	}
}

// TestFaultInjectionThroughPublicAPI drives the whole resilience surface
// from outside: parse a spec, inject it, run a transfer loop that must
// survive the faults, and read back both counter sets.
func TestFaultInjectionThroughPublicAPI(t *testing.T) {
	plan, err := northup.ParseFaults("seed=13,rate=0.3,alloc-rate=0.2")
	if err != nil {
		t.Fatal(err)
	}
	e := northup.NewEngine()
	tree := northup.APU(e, northup.APUConfig{Storage: northup.SSD,
		StorageMiB: 32, DRAMMiB: 4})
	opts := northup.DefaultOptions()
	opts.Faults = plan.Inject(e)
	opts.Retry = northup.DefaultRetryPolicy()
	rt := northup.NewRuntime(e, tree, opts)

	const n = 64 * northup.KiB
	_, err = rt.Run("survive", func(c *northup.Ctx) error {
		src, err := c.Alloc(n)
		if err != nil {
			return err
		}
		for i := 0; i < 40; i++ {
			buf, err := c.AllocAt(c.Children()[0], n)
			if err != nil {
				return err
			}
			if err := c.MoveDataDown(buf, src, 0, 0, n); err != nil {
				return err
			}
			if err := c.Release(buf); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !opts.Faults.Stats().Any() {
		t.Fatal("injector stats empty at 30%/20% rates")
	}
	res := rt.Resilience()
	if res.Retries == 0 || res.GaveUp != 0 {
		t.Fatalf("resilience counters off: %v", res)
	}
	if !strings.Contains(rt.ResilienceReport(), "injected") {
		t.Error("resilience report missing injected-stats row")
	}
}
