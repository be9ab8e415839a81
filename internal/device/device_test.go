package device

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func testDRAM(e *sim.Engine) *Device {
	return New(e, DRAMProfile(1*GiB))
}

func TestReserveAccounting(t *testing.T) {
	e := sim.NewEngine()
	d := testDRAM(e)
	if err := d.Reserve(600 * MiB); err != nil {
		t.Fatal(err)
	}
	if err := d.Reserve(600 * MiB); err == nil {
		t.Fatal("over-reservation succeeded")
	} else {
		var ce *ErrCapacity
		if !errors.As(err, &ce) {
			t.Fatalf("error type %T", err)
		}
		if ce.Free != 1*GiB-600*MiB {
			t.Fatalf("reported free %d", ce.Free)
		}
	}
	d.Unreserve(600 * MiB)
	if d.Used() != 0 {
		t.Fatalf("used = %d after full unreserve", d.Used())
	}
	if err := d.Reserve(1 * GiB); err != nil {
		t.Fatalf("full-capacity reserve failed: %v", err)
	}
}

func TestReserveNeverOverbooks(t *testing.T) {
	// Property: for any sequence of reservation sizes, used <= capacity and
	// used equals the sum of successful reservations.
	f := func(sizes []uint32) bool {
		e := sim.NewEngine()
		d := New(e, Profile{Name: "d", Kind: KindMem, Capacity: 1 << 20,
			ReadBW: 1e9, WriteBW: 1e9})
		var want int64
		for _, s := range sizes {
			n := int64(s % (1 << 18))
			if d.Reserve(n) == nil {
				want += n
			}
		}
		return d.Used() == want && d.Used() <= d.Capacity()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAccessTiming(t *testing.T) {
	e := sim.NewEngine()
	// 1000 B/s read, 500 B/s write, no latency: timing is pure bandwidth.
	d := New(e, Profile{Name: "d", Kind: KindSSD, Capacity: 1 << 20,
		ReadBW: 1000, WriteBW: 500})
	var rt, wt sim.Time
	e.Spawn("io", func(p *sim.Proc) {
		rt = d.Access(p, Read, 0, 1000)
		wt = d.Access(p, Write, 1000, 1000)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if rt != sim.Second {
		t.Fatalf("read time %v, want 1s", rt)
	}
	if wt != 2*sim.Second {
		t.Fatalf("write time %v, want 2s", wt)
	}
	if e.Now() != 3*sim.Second {
		t.Fatalf("clock %v, want 3s", e.Now())
	}
}

func TestSeekPenalty(t *testing.T) {
	e := sim.NewEngine()
	d := New(e, Profile{Name: "hdd", Kind: KindHDD, Capacity: 1 << 30,
		ReadBW: 1e6, WriteBW: 1e6,
		SeekTime: 10 * sim.Millisecond})
	var seq, rand sim.Time
	e.Spawn("io", func(p *sim.Proc) {
		d.Access(p, Read, 0, 1000)             // first access seeks (lastEnd=0 -> offset 0 is sequential, actually)
		seq = d.Access(p, Read, 1000, 1000)    // sequential: no seek
		rand = d.Access(p, Read, 500000, 1000) // jump: seek
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if seq >= rand {
		t.Fatalf("sequential %v not cheaper than random %v", seq, rand)
	}
	if rand-seq != 10*sim.Millisecond {
		t.Fatalf("seek penalty = %v, want 10ms", rand-seq)
	}
}

func TestDeviceContention(t *testing.T) {
	// Two 1-second reads on a serial device finish at 1s and 2s.
	e := sim.NewEngine()
	d := New(e, Profile{Name: "d", Kind: KindSSD, Capacity: 1 << 20,
		ReadBW: 1000, WriteBW: 1000})
	var ends []sim.Time
	for i := 0; i < 2; i++ {
		e.Spawn(fmt.Sprintf("r%d", i), func(p *sim.Proc) {
			d.Access(p, Read, 0, 1000)
			ends = append(ends, p.Now())
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if ends[0] != sim.Second || ends[1] != 2*sim.Second {
		t.Fatalf("ends = %v", ends)
	}
}

func TestDeviceParallelism(t *testing.T) {
	// With Parallelism 2, two equal accesses complete together.
	e := sim.NewEngine()
	d := New(e, Profile{Name: "d", Kind: KindMem, Capacity: 1 << 20,
		ReadBW: 1000, WriteBW: 1000, Parallelism: 2})
	var ends []sim.Time
	for i := 0; i < 2; i++ {
		e.Spawn(fmt.Sprintf("r%d", i), func(p *sim.Proc) {
			d.Access(p, Read, 0, 1000)
			ends = append(ends, p.Now())
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if ends[0] != sim.Second || ends[1] != sim.Second {
		t.Fatalf("ends = %v", ends)
	}
}

func TestStatsAndRecorder(t *testing.T) {
	e := sim.NewEngine()
	d := New(e, SSDProfile(1*GiB, 1400, 600))
	var recs []IORecord
	d.SetRecorder(func(r IORecord) { recs = append(recs, r) })
	e.Spawn("io", func(p *sim.Proc) {
		d.Access(p, Read, 0, 7*MiB)
		d.Access(p, Write, 7*MiB, 3*MiB)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	rb, wb, rt, wt := d.Stats()
	if rb != 7*MiB || wb != 3*MiB {
		t.Fatalf("bytes = %d/%d", rb, wb)
	}
	if rt <= 0 || wt <= 0 {
		t.Fatalf("times = %v/%v", rt, wt)
	}
	if len(recs) != 2 || recs[0].Op != Read || recs[1].Op != Write {
		t.Fatalf("records = %+v", recs)
	}
	d.ResetStats()
	rb, wb, _, _ = d.Stats()
	if rb != 0 || wb != 0 {
		t.Fatal("ResetStats did not clear counters")
	}
}

func TestLinkBottleneck(t *testing.T) {
	e := sim.NewEngine()
	slow := New(e, Profile{Name: "slow", Kind: KindSSD, Capacity: 1 << 20,
		ReadBW: 100, WriteBW: 100})
	fast := New(e, Profile{Name: "fast", Kind: KindMem, Capacity: 1 << 20,
		ReadBW: 1e6, WriteBW: 1e6})
	l := NewLink(e, "l", 1e3, 0, 1)
	var t1, t2 sim.Time
	e.Spawn("x", func(p *sim.Proc) {
		t1 = l.Transfer(p, slow, fast, 100) // bottleneck: slow reads at 100 B/s
		t2 = l.Transfer(p, fast, fast, 100) // bottleneck: the link at 1e3 B/s
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if t1 != sim.Second {
		t.Fatalf("slow-source transfer = %v, want 1s", t1)
	}
	if t2 != sim.Second/10 {
		t.Fatalf("link-bound transfer = %v, want 100ms", t2)
	}
}

func TestServiceTimeMonotonicInSize(t *testing.T) {
	e := sim.NewEngine()
	d := New(e, HDDProfile(1*GiB))
	f := func(a, b uint32) bool {
		x, y := int64(a), int64(b)
		if x > y {
			x, y = y, x
		}
		return d.ServiceTime(Read, 0, x, false) <= d.ServiceTime(Read, 0, y, false)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	_ = e
}

func TestProfileSanity(t *testing.T) {
	profiles := []Profile{
		HDDProfile(500 * GiB),
		SSDProfile(480*GiB, 1400, 600),
		NVMProfile(64 * GiB),
		DRAMProfile(2 * GiB),
		HBMProfile(8 * GiB),
		GPUMemProfile(16 * GiB),
	}
	// The paper's premise: each level up the hierarchy is faster.
	for i := 1; i < len(profiles); i++ {
		if profiles[i].ReadBW <= profiles[i-1].ReadBW {
			t.Errorf("%s read BW %.0f not faster than %s %.0f",
				profiles[i].Name, profiles[i].ReadBW,
				profiles[i-1].Name, profiles[i-1].ReadBW)
		}
	}
	for _, p := range profiles {
		if p.Capacity <= 0 || p.WriteBW <= 0 {
			t.Errorf("profile %s not fully specified: %+v", p.Name, p)
		}
	}
}

func TestNegativeReserveRejected(t *testing.T) {
	e := sim.NewEngine()
	d := testDRAM(e)
	if err := d.Reserve(-1); err == nil {
		t.Fatal("negative reserve accepted")
	}
}

func TestUnreserveTooMuchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	e := sim.NewEngine()
	d := testDRAM(e)
	d.Unreserve(1)
}

func TestDeviceQueueStats(t *testing.T) {
	e := sim.NewEngine()
	d := New(e, Profile{Name: "d", Kind: KindSSD, Capacity: 1 << 20,
		ReadBW: 1000, WriteBW: 1000})
	for i := 0; i < 2; i++ {
		e.Spawn(fmt.Sprintf("r%d", i), func(p *sim.Proc) {
			d.Access(p, Read, 0, 1000) // 1s each, serialized
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	requests, queued, wait := d.QueueStats()
	if requests != 2 || queued != 1 {
		t.Fatalf("requests=%d queued=%d", requests, queued)
	}
	if wait != sim.Second {
		t.Fatalf("wait = %v, want 1s", wait)
	}
}

// TestRequestChargesAllocateNothing holds a caller-owned Request to its
// promise: once its continuations are bound, a chain of 100 device
// accesses and 100 link transfers, each started from the previous charge's
// done, allocates nothing.
func TestRequestChargesAllocateNothing(t *testing.T) {
	e := sim.NewEngine()
	d := testDRAM(e)
	l := NewLink(e, "l", 1e9, sim.Microsecond, 1)
	var r Request
	left, charged := 0, 0
	var next func(sim.Time)
	next = func(sim.Time) {
		switch left--; {
		case left >= 100:
			d.AccessAsync(&r, Read, 0, 4096, next)
		case left >= 0:
			l.TransferAsync(&r, d, nil, 4096, next)
		}
		charged++
	}
	const runs = 10
	allocs := testing.AllocsPerRun(runs, func() {
		left = 200
		next(0)
		if err := e.Run(); err != nil {
			panic(err)
		}
	})
	if allocs != 0 {
		t.Errorf("%v allocations per 200 charges, want 0", allocs)
	}
	if want := (runs + 1) * 201; charged != want {
		t.Errorf("%d charges completed, want %d", charged, want)
	}
}

// TestRequestsAndProcsShareOneFIFO mixes the two kinds of traffic on one
// seeking device and one link: one stream charges through a Request
// restarted from its own done, the other is a process calling Access and
// Transfer, and then the two swap. Every charge must complete when it does
// in a run where both streams are processes, with the same IORecords in
// the same order and the same queueing statistics.
func TestRequestsAndProcsShareOneFIFO(t *testing.T) {
	type charge struct {
		link bool
		op   Op
		off  int64
		n    int64
	}
	// Each stream reads or writes its own region sequentially, so whether
	// an access seeks depends on which access the device served last.
	rng := rand.New(rand.NewSource(5))
	streams := make([][]charge, 2)
	starts := make([]sim.Time, len(streams))
	for i := range streams {
		starts[i] = sim.Time(rng.Intn(3)) * sim.Millisecond
		off := int64(i) << 26
		for j := 0; j < 24; j++ {
			c := charge{link: rng.Intn(3) == 0, op: Op(rng.Intn(2)), off: off, n: int64(1+rng.Intn(64)) << 10}
			if !c.link {
				off += c.n
			}
			streams[i] = append(streams[i], c)
		}
	}
	type outcome struct {
		ends    [][]sim.Time
		records []IORecord
		queue   [3]int64
	}
	// run makes stream async charge through a Request; -1 makes none.
	run := func(async int) outcome {
		e := sim.NewEngine()
		d := New(e, Profile{Name: "hdd", Kind: KindHDD, Capacity: 1 << 30,
			ReadBW: 100e6, WriteBW: 80e6, Latency: 50 * sim.Microsecond,
			SeekTime: 2 * sim.Millisecond})
		l := NewLink(e, "l", 50e6, 20*sim.Microsecond, 1)
		var out outcome
		d.SetRecorder(func(r IORecord) { out.records = append(out.records, r) })
		out.ends = make([][]sim.Time, len(streams))
		for i, cs := range streams {
			if i != async {
				e.Spawn(fmt.Sprintf("s%d", i), func(p *sim.Proc) {
					p.Sleep(starts[i])
					for _, c := range cs {
						if c.link {
							l.Transfer(p, d, nil, c.n)
						} else {
							d.Access(p, c.op, c.off, c.n)
						}
						out.ends[i] = append(out.ends[i], p.Now())
					}
				})
				continue
			}
			// The callback twin of the process above: the spawn and the
			// sleep are one engine event each, as they are for a process.
			var r Request
			var next func(sim.Time)
			startNext := func() {
				c := cs[len(out.ends[i])]
				if c.link {
					l.TransferAsync(&r, d, nil, c.n, next)
				} else {
					d.AccessAsync(&r, c.op, c.off, c.n, next)
				}
			}
			next = func(sim.Time) {
				if out.ends[i] = append(out.ends[i], e.Now()); len(out.ends[i]) < len(cs) {
					startNext()
				}
			}
			e.At(e.Now(), func() { e.After(starts[i], startNext) })
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		req, queued, wait := d.QueueStats()
		out.queue = [3]int64{req, queued, int64(wait)}
		return out
	}
	procs := run(-1)
	sequential := 0
	for _, r := range procs.records {
		if !r.Seek {
			sequential++
		}
	}
	if procs.queue[1] == 0 || sequential == 0 {
		t.Fatalf("%d charges queued, %d sequential: the streams never contend for the head",
			procs.queue[1], sequential)
	}
	for async := range streams {
		if mixed := run(async); !reflect.DeepEqual(procs, mixed) {
			t.Errorf("stream %d on a Request diverges from all-process traffic:\n procs %+v\n mixed %+v",
				async, procs, mixed)
		}
	}
}
