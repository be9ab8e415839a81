package journey

import (
	"slices"
	"testing"

	"repro/internal/sim"
	"repro/internal/trace"
)

// FuzzJourneySegments drives one job through Dispatched, a run of charges
// and Marks, and Finish, under a segment cap of 1 to 8, beside an uncapped
// copy of the same job. Each op is four bytes: a kind (one in four is a
// Mark; the rest advance the clock and charge), a category or label, a step
// back from the clock and a signed length. Charges therefore overlap the
// cursor, start before earlier ones and end before they start, all of
// which NoteSpan clamps.
func FuzzJourneySegments(f *testing.F) {
	f.Add(uint16(100), uint16(150), uint8(3), []byte{0x11, 4, 0, 10, 0x21, 6, 0, 0xf4, 0, 1, 0, 0, 0x32, 2, 9, 40})
	f.Add(uint16(0), uint16(0), uint8(0), []byte{})
	f.Add(uint16(7), uint16(1), uint8(0x27), []byte{0x01, 1, 0, 10, 0x01, 1, 0, 10, 0x41, 7, 3, 3, 0, 0, 0, 0, 0x05, 1, 31, 2})
	f.Fuzz(func(t *testing.T, arrive, wait uint16, capRaw uint8, ops []byte) {
		const maxOps = 256
		ops = ops[:min(len(ops), 4*maxOps)]
		maxSegs := 1 + int(capRaw%8)
		capped := NewRecorder(1, maxSegs).Admit("a", 0, "w", 1, sim.Time(arrive), nil)
		full := NewRecorder(1, 2*len(ops)/4+4).Admit("a", 0, "w", 1, sim.Time(arrive), nil)
		jobs := []*Job{capped, full}

		start := sim.Time(arrive) + sim.Time(wait)
		for _, j := range jobs {
			j.Dispatched(start)
		}
		// busy is each category's clamped charge time: a charge starts no
		// earlier than the end of the one before and ends no earlier than
		// it starts.
		busy := make([]sim.Time, len(trace.Categories))
		clock, cursor := start, start
		for i := 0; i+4 <= len(ops); i += 4 {
			kind, c, back, length := ops[i], ops[i+1], ops[i+2], ops[i+3]
			if kind%4 == 0 {
				label := []string{"", PhaseMerge, "x"}[c%3]
				for _, j := range jobs {
					j.Mark(label)
				}
				continue
			}
			cat := trace.Categories[int(c)%len(trace.Categories)]
			lane := trace.Lane{Node: int(kind/4) % 3, Track: "t"}
			clock += sim.Time(kind / 16)
			s := clock - sim.Time(back%32)
			e := s + sim.Time(int8(length))
			for _, j := range jobs {
				j.NoteSpan(cat, lane, "op", s, e, int64(length))
			}
			s = max(s, cursor)
			e = max(e, s)
			busy[cat] += e - s
			cursor = e
		}
		done := cursor + sim.Time(capRaw/8)
		for _, j := range jobs {
			j.Finish(done, false)
		}

		for _, j := range jobs {
			if got, want := j.PhaseSum(), int64(j.Latency()); got != want {
				t.Fatalf("cap %d: PhaseSum %d != Latency %d", j.maxSegs, got, want)
			}
			for _, cat := range trace.Categories {
				if got := j.CategoryBusy(cat); got != busy[cat] {
					t.Fatalf("cap %d: CategoryBusy(%v) = %d, clamped charges %d", j.maxSegs, cat, got, busy[cat])
				}
			}
			segs, dropped := j.Segments()
			if len(segs) == 0 || segs[0].StartNS != int64(j.Arrive) {
				t.Fatalf("cap %d: segments %+v do not start at arrival %d", j.maxSegs, segs, j.Arrive)
			}
			for i := 1; i < len(segs); i++ {
				a, b := segs[i-1], segs[i]
				if a.StartNS+a.DurNS != b.StartNS {
					t.Fatalf("cap %d: segments %d %+v and %d %+v do not touch", j.maxSegs, i-1, a, i, b)
				}
				if a.Phase == b.Phase {
					t.Fatalf("cap %d: touching segments %d and %d share phase %q", j.maxSegs, i-1, i, a.Phase)
				}
			}
			end := segs[len(segs)-1].StartNS + segs[len(segs)-1].DurNS
			if dropped == 0 && end != int64(done) || end > int64(done) {
				t.Fatalf("cap %d: segments end at %d, job done at %d, %d dropped", j.maxSegs, end, done, dropped)
			}
		}

		// The uncapped timeline drops nothing; the capped one holds at
		// most its cap, drops exactly when the timeline outgrows it, and
		// then keeps the timeline's first segments.
		fullSegs, fullDrop := full.Segments()
		segs, dropped := capped.Segments()
		switch {
		case fullDrop != 0:
			t.Fatalf("uncapped journey dropped %d segments", fullDrop)
		case len(segs) > maxSegs:
			t.Fatalf("%d segments under a cap of %d", len(segs), maxSegs)
		case len(fullSegs) <= maxSegs && (dropped != 0 || !slices.Equal(segs, fullSegs)):
			t.Fatalf("the timeline fits the cap, yet %d dropped:\n%+v\nwant %+v", dropped, segs, fullSegs)
		case len(fullSegs) > maxSegs && (dropped == 0 || len(segs) != maxSegs ||
			!slices.Equal(segs[:maxSegs-1], fullSegs[:maxSegs-1]) ||
			segs[maxSegs-1].Phase != fullSegs[maxSegs-1].Phase ||
			segs[maxSegs-1].StartNS != fullSegs[maxSegs-1].StartNS):
			t.Fatalf("%d segments past a cap of %d, %d dropped:\n%+v\nwant a prefix of %+v",
				len(fullSegs), maxSegs, dropped, segs, fullSegs)
		}
		// Phase totals stay exact past the cap.
		if !slices.Equal(capped.Phases(), full.Phases()) {
			t.Fatalf("phase totals differ under the cap:\n%+v\nuncapped %+v", capped.Phases(), full.Phases())
		}
	})
}
