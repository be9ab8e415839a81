package trace

import (
	"bytes"
	"sort"
	"strings"
	"testing"

	"repro/internal/sim"
)

// fuzzReader hands out the fuzz input a few bytes at a time; an exhausted
// input reads as zeros.
type fuzzReader struct{ b []byte }

func (r *fuzzReader) byte() byte {
	if len(r.b) == 0 {
		return 0
	}
	c := r.b[0]
	r.b = r.b[1:]
	return c
}

// uint reads n bytes big-endian.
func (r *fuzzReader) uint(n int) uint64 {
	var v uint64
	for i := 0; i < n; i++ {
		v = v<<8 | uint64(r.byte())
	}
	return v
}

// str returns one of the strings drawn so far or a new non-empty valid
// UTF-8 string of up to eight input bytes, which joins the pool.
func (r *fuzzReader) str(pool *[]string) string {
	c := r.byte()
	if c < 0x80 && len(*pool) > 0 {
		return (*pool)[int(c)%len(*pool)]
	}
	raw := make([]byte, 1+int(c&7))
	for i := range raw {
		raw[i] = r.byte()
	}
	s := strings.ToValidUTF8(string(raw), "\uFFFD")
	*pool = append(*pool, s)
	return s
}

// fuzzRecord runs data as a recorder program: a header byte sizes a small
// ring, then each call takes an op byte (kind and span category), a node
// in -1..7, a track and a name, a start and a duration below 2^40 ns, and
// an 8-byte value.
func fuzzRecord(data []byte) *Recorder {
	r := &fuzzReader{b: data}
	rec := NewRecorder(Options{MaxEvents: 1 + int(r.byte()%32)})
	var tracks, names []string
	for len(r.b) > 0 {
		op := r.byte()
		lane := Lane{Node: int(r.byte()%9) - 1, Track: r.str(&tracks)}
		name := r.str(&names)
		start := sim.Time(r.uint(5))
		dur := sim.Time(r.uint(5)) % (1<<40 - start)
		value := int64(r.uint(8))
		switch op % 3 {
		case 0:
			cat := Category(int(op/3)%(int(numCategories)+1)) - 1 // None or a real category
			rec.Span(lane, cat, name, start, start+dur, value)
		case 1:
			rec.Instant(lane, name, start, value)
		default:
			rec.Counter(lane, name, start, value)
		}
	}
	return rec
}

// FuzzChromeTrace checks the Chrome trace reader and writer. Arbitrary
// bytes must not panic the parser, the validator or the analyses of what
// parses, and whatever validates must parse. The same bytes run as a
// recorder program must export to a trace that validates exactly when
// nothing was dropped and parses back to the recorded events in
// (Start, Seq) order.
func FuzzChromeTrace(f *testing.F) {
	var sample bytes.Buffer
	if err := WriteChromeTrace(&sample, sampleEvents(), ChromeExportOptions{}); err != nil {
		f.Fatal(err)
	}
	f.Add(sample.Bytes())
	f.Add([]byte(`{"traceEvents":[{"ph":"X","name":"k","ts":1.5,"dur":-2,"pid":1,"tid":1}]}`))
	f.Add([]byte{31, 0, 2, 0x80, 'x', 0x81, 'm', 'v', 0, 0, 0, 1, 0, 0, 0, 0, 0, 5, 0, 0, 0, 0, 0, 0, 0, 9,
		1, 3, 0, 0, 0, 0, 0, 0, 7, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		verr := ValidateChromeTrace(data)
		pt, perr := ParseChromeTrace(data)
		if verr == nil && perr != nil {
			t.Fatalf("validated trace does not parse: %v", perr)
		}
		if perr == nil {
			Summarize(pt.Events, SummaryOptions{})
			CriticalPath(pt.Events, SummaryOptions{})
		}

		rec := fuzzRecord(data)
		want := rec.Events()
		var out bytes.Buffer
		if err := WriteChromeTrace(&out, want, ChromeExportOptions{DroppedEvents: rec.Dropped()}); err != nil {
			t.Fatal(err)
		}
		if err := ValidateChromeTrace(out.Bytes()); (err == nil) != (rec.Dropped() == 0) {
			t.Fatalf("dropped %d: validation error %v", rec.Dropped(), err)
		}
		pt, err := ParseChromeTrace(out.Bytes())
		if err != nil {
			t.Fatalf("exported trace does not parse: %v", err)
		}
		sort.Slice(want, func(i, j int) bool {
			if want[i].Start != want[j].Start {
				return want[i].Start < want[j].Start
			}
			return want[i].Seq < want[j].Seq
		})
		if len(pt.Events) != len(want) {
			t.Fatalf("parsed %d events, recorded %d", len(pt.Events), len(want))
		}
		for i, g := range pt.Events {
			w := want[i]
			if g.Kind != w.Kind || g.Name != w.Name || g.Lane != w.Lane || g.Start != w.Start ||
				g.Dur != w.Dur || g.Value != w.Value || (w.Kind == KindSpan && g.Cat != w.Cat) {
				t.Fatalf("event %d parsed as %+v, recorded %+v", i, g, w)
			}
		}
	})
}
