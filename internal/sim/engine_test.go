package sim

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"
)

func TestClockAdvances(t *testing.T) {
	e := NewEngine()
	var at []Time
	e.Spawn("a", func(p *Proc) {
		p.Sleep(10 * Millisecond)
		at = append(at, p.Now())
		p.Sleep(5 * Millisecond)
		at = append(at, p.Now())
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(at) != 2 || at[0] != 10*Millisecond || at[1] != 15*Millisecond {
		t.Fatalf("got wakeups at %v", at)
	}
	if e.Now() != 15*Millisecond {
		t.Fatalf("final time %v", e.Now())
	}
}

func TestInterleavingIsByTimestamp(t *testing.T) {
	e := NewEngine()
	var order []string
	mark := func(s string) { order = append(order, s) }
	e.Spawn("slow", func(p *Proc) {
		p.Sleep(30)
		mark("slow")
	})
	e.Spawn("fast", func(p *Proc) {
		p.Sleep(10)
		mark("fast")
		p.Sleep(30) // wakes at 40
		mark("fast2")
	})
	e.Spawn("mid", func(p *Proc) {
		p.Sleep(20)
		mark("mid")
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	got := strings.Join(order, ",")
	if got != "fast,mid,slow,fast2" {
		t.Fatalf("order = %s", got)
	}
}

func TestEqualTimestampsFIFO(t *testing.T) {
	// Processes scheduled for the same instant run in scheduling order.
	e := NewEngine()
	var order []int
	for i := 0; i < 8; i++ {
		i := i
		e.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
			p.Sleep(100)
			order = append(order, i)
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("order = %v", order)
		}
	}
}

func TestSpawnFromProcess(t *testing.T) {
	e := NewEngine()
	var childTime Time
	e.Spawn("parent", func(p *Proc) {
		p.Sleep(5)
		e.Spawn("child", func(c *Proc) {
			c.Sleep(7)
			childTime = c.Now()
		})
		p.Sleep(100)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if childTime != 12 {
		t.Fatalf("child finished at %d, want 12", childTime)
	}
}

func TestDeadlockDetected(t *testing.T) {
	e := NewEngine()
	l := NewLatch(e)
	e.Spawn("stuck", func(p *Proc) { l.Wait(p) })
	err := e.Run()
	d, ok := err.(*DeadlockError)
	if !ok {
		t.Fatalf("err = %v, want DeadlockError", err)
	}
	if len(d.Blocked) != 1 || d.Blocked[0] != "stuck" {
		t.Fatalf("blocked = %v", d.Blocked)
	}
}

func TestProcessPanicPropagates(t *testing.T) {
	e := NewEngine()
	e.Spawn("boom", func(p *Proc) {
		p.Sleep(1)
		panic("kaboom")
	})
	err := e.Run()
	if err == nil || !strings.Contains(err.Error(), "kaboom") {
		t.Fatalf("err = %v", err)
	}
}

func TestRunUntilResumes(t *testing.T) {
	e := NewEngine()
	done := false
	e.Spawn("late", func(p *Proc) {
		p.Sleep(100)
		done = true
	})
	if err := e.RunUntil(50); err != nil {
		t.Fatal(err)
	}
	if done || e.Now() != 50 {
		t.Fatalf("done=%v now=%v after first half", done, e.Now())
	}
	if err := e.RunUntil(-1); err != nil {
		t.Fatal(err)
	}
	if !done || e.Now() != 100 {
		t.Fatalf("done=%v now=%v after resume", done, e.Now())
	}
}

func TestDeterminism(t *testing.T) {
	// Two identical multi-process simulations produce identical traces.
	run := func() string {
		e := NewEngine()
		var sb strings.Builder
		e.SetTrace(func(tm Time, p *Proc) {
			fmt.Fprintf(&sb, "%d:%s;", tm, p.Name())
		})
		r := NewResource(e, 2)
		wg := NewWaitGroup(e)
		for i := 0; i < 6; i++ {
			i := i
			wg.Add(1)
			e.Spawn(fmt.Sprintf("w%d", i), func(p *Proc) {
				defer wg.Done()
				for j := 0; j < 3; j++ {
					r.Use(p, Time(10+i*3+j))
				}
			})
		}
		e.Spawn("join", func(p *Proc) { wg.Wait(p) })
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("traces differ:\n%s\n%s", a, b)
	}
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		t Time
		s string
	}{
		{0, "0ns"},
		{999, "999ns"},
		{1500, "1.5µs"},
		{2 * Millisecond, "2ms"},
		{3 * Second, "3s"},
		{-2 * Millisecond, "-2ms"},
	}
	for _, c := range cases {
		if got := c.t.String(); got != c.s {
			t.Errorf("%d.String() = %q, want %q", int64(c.t), got, c.s)
		}
	}
}

func TestTransferTime(t *testing.T) {
	if d := TransferTime(1000, 1000); d != Second {
		t.Fatalf("1000B at 1000B/s = %v", d)
	}
	if d := TransferTime(0, 100); d != 0 {
		t.Fatalf("zero bytes = %v", d)
	}
	if d := TransferTime(100, 0); d != 0 {
		t.Fatalf("zero bandwidth = %v", d)
	}
}

func TestTransferTimeMonotonic(t *testing.T) {
	// Property: more bytes never take less time at a fixed bandwidth.
	f := func(a, b uint32) bool {
		x, y := int64(a), int64(b)
		if x > y {
			x, y = y, x
		}
		return TransferTime(x, 1e9) <= TransferTime(y, 1e9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSecondsRoundTrip(t *testing.T) {
	f := func(ms uint16) bool {
		d := Seconds(float64(ms) / 1000)
		return d == Time(ms)*Millisecond
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEngineStats(t *testing.T) {
	e := NewEngine()
	e.Spawn("a", func(p *Proc) {
		for i := 0; i < 5; i++ {
			p.Sleep(1)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	if st.Procs != 1 {
		t.Fatalf("procs = %d", st.Procs)
	}
	if st.Live != 0 {
		t.Fatalf("live = %d after drain", st.Live)
	}
	// Start event + 5 sleeps.
	if st.Events != 6 {
		t.Fatalf("events = %d, want 6", st.Events)
	}
	if st.Callbacks != 0 {
		t.Fatalf("callbacks = %d, want 0", st.Callbacks)
	}
	if st.Wall <= 0 || st.EventsPerSec() <= 0 {
		t.Fatalf("wall-clock stats not recorded: %+v", st)
	}
}

// mixTarget is what an event mix drives: the engine, or heapScheduler, its
// oracle.
type mixTarget interface {
	now() Time
	at(t Time, fn func())
	// spawn starts a process at now that runs step at each resumption and
	// then sleeps the time step returns, until step returns false.
	spawn(step func() (Time, bool))
	peek() (Time, bool)
	runUntil(deadline Time) error
}

type engineTarget struct{ e *Engine }

func (x engineTarget) now() Time             { return x.e.Now() }
func (x engineTarget) at(t Time, fn func())  { x.e.At(t, fn) }
func (x engineTarget) peek() (Time, bool)    { return x.e.Peek() }
func (x engineTarget) runUntil(d Time) error { return x.e.RunUntil(d) }

func (x engineTarget) spawn(step func() (Time, bool)) {
	x.e.Spawn("mix", func(p *Proc) {
		for {
			d, ok := step()
			if !ok {
				return
			}
			p.Sleep(d)
		}
	})
}

// eventMix is a seeded random mix of events: width lockstep chains that
// mostly schedule their successors one shared period ahead (same-time
// storms), mixed with lone events at random gaps, events for the current
// instant and times in the past, run in slices with more events pushed from
// outside between them. procs in 8ths of the new events start a process
// instead of scheduling a callback. Every choice comes from a hash of the
// seed and an event ID, and IDs are given in scheduling order, so two
// targets that dispatch the same events in the same order log the same mix.
type eventMix struct {
	tgt    mixTarget
	seed   uint64
	period Time
	procs  int
	budget int // events to schedule in all
	ids    int
	log    strings.Builder
}

func (m *eventMix) draw(id, k int) uint64 {
	z := m.seed + uint64(id)*0x9e3779b97f4a7c15 + uint64(k)*0xd1b54a32d192ed03
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// delay draws how far ahead of now a new event lands.
func (m *eventMix) delay(r uint64) Time {
	switch r % 8 {
	case 0, 1, 2, 3:
		return m.period // the chains' shared period: a storm
	case 4, 5:
		return Time(1 + r>>8%97) // a lone event
	case 6:
		return 0 // the current instant
	default:
		return -Time(1 + r>>8%20) // the past, clamped to now
	}
}

// add schedules a new event at t, or starts a process at now.
func (m *eventMix) add(t Time, r uint64) {
	m.ids++
	id := m.ids
	if int(r>>40%8) >= m.procs {
		m.tgt.at(t, func() { m.fire(id) })
		return
	}
	m.tgt.spawn(func() (Time, bool) {
		m.fire(id)
		r := m.draw(id, -1)
		if m.ids >= m.budget || r%8 == 0 {
			return 0, false
		}
		m.ids++
		id = m.ids
		return m.delay(r >> 3), true
	})
}

// fire logs event id at now and schedules its successors: usually one,
// sometimes none or a burst of two to four.
func (m *eventMix) fire(id int) {
	now := m.tgt.now()
	fmt.Fprintf(&m.log, "%d@%d;", id, now)
	r := m.draw(id, 0)
	n := 1
	switch r % 10 {
	case 0:
		n = 0
	case 1, 2:
		n = 2 + int(r>>4%3)
	}
	for k := 1; k <= n && m.ids < m.budget; k++ {
		c := m.draw(id, k)
		m.add(now+m.delay(c), c)
	}
}

// runEventMix runs one mix on tgt and returns its log: every event with
// the instant it fired, and the clock and Peek after each slice.
func runEventMix(tgt mixTarget, seed uint64, width, procs, slices int) (string, error) {
	m := &eventMix{tgt: tgt, seed: seed, period: Time(1 + seed%13), procs: procs, budget: 3000}
	for i := 1; i <= width; i++ {
		m.add(m.period, m.draw(-i, 0))
	}
	span := m.period * Time(1+m.budget/(width*slices))
	for k := 1; k <= slices; k++ {
		if err := tgt.runUntil(Time(k) * span); err != nil {
			return "", err
		}
		t, ok := tgt.peek()
		fmt.Fprintf(&m.log, "slice@%d:peek=%d,%v;", tgt.now(), t, ok)
		r := m.draw(-1000-k, 0)
		for j := 1; j <= int(r%6) && m.ids < m.budget; j++ {
			c := m.draw(-1000-k, j)
			m.add(tgt.now()+m.delay(c), c)
		}
	}
	if err := tgt.runUntil(-1); err != nil {
		return "", err
	}
	fmt.Fprintf(&m.log, "end@%d", tgt.now())
	return m.log.String(), nil
}

// checkEventMix runs one mix on a new engine and on the oracle and fails
// at the first difference in their logs. It returns the engine.
func checkEventMix(tb testing.TB, seed uint64, width, procs, slices int) *Engine {
	tb.Helper()
	e := NewEngine()
	got, err := runEventMix(engineTarget{e}, seed, width, procs, slices)
	if err != nil {
		tb.Fatal(err)
	}
	want, _ := runEventMix(&heapScheduler{}, seed, width, procs, slices)
	if got != want {
		i := 0
		for i < len(got) && i < len(want) && got[i] == want[i] {
			i++
		}
		from := strings.LastIndexByte(got[:i], ';') + 1
		tb.Fatalf("seed %d, width %d, procs %d/8, %d slices: dispatch differs from the heap's at byte %d:\nengine: %.80s\nheap:   %.80s",
			seed, width, procs, slices, i, got[from:], want[from:])
	}
	return e
}

// TestEventQueueMatchesHeap runs seeded event mixes on the engine and on
// heapScheduler, which pops a plain heap one event at a time: every event
// must fire at the same instant and in the same order, and Peek must agree
// between slices. Every mix must form runs, or it would not check them.
func TestEventQueueMatchesHeap(t *testing.T) {
	for seed := uint64(1); seed <= 40; seed++ {
		width, procs, slices := 1+int(seed*7%40), int(seed%9), 1+int(seed%5)
		e := checkEventMix(t, seed, width, procs, slices)
		if len(e.events.spare) == 0 {
			t.Fatalf("seed %d, width %d: no run formed", seed, width)
		}
	}
}

// FuzzEventQueueMatchesHeap is TestEventQueueMatchesHeap over drawn seeds,
// chain counts, process shares and slice counts.
func FuzzEventQueueMatchesHeap(f *testing.F) {
	f.Add(uint64(1), uint8(32), uint8(0), uint8(0))
	f.Add(uint64(7), uint8(3), uint8(4), uint8(2))
	f.Add(uint64(42), uint8(17), uint8(8), uint8(4))
	f.Fuzz(func(t *testing.T, seed uint64, widthRaw, procsRaw, slicesRaw uint8) {
		checkEventMix(t, seed, 1+int(widthRaw%40), int(procsRaw%9), 1+int(slicesRaw%6))
	})
}
