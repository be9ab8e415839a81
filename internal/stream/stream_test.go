package stream

import (
	"testing"

	"repro/internal/sim"
)

const (
	KiB = int64(1) << 10
	MiB = int64(1) << 20
	GiB = int64(1) << 30
)

func balancedHops() []Hop {
	return []Hop{
		{Latency: 60 * sim.Microsecond, BW: 1.4e9}, // io
		{Latency: 10 * sim.Microsecond, BW: 1.5e9}, // pcie
	}
}

func TestServiceTime(t *testing.T) {
	h := Hop{Latency: 10 * sim.Microsecond, BW: 1e9}
	got := h.ServiceTime(1e9)
	want := 10*sim.Microsecond + sim.Second
	if got != want {
		t.Fatalf("ServiceTime = %v, want %v", got, want)
	}
}

func TestMakespanSingleChunkIsSumOfHops(t *testing.T) {
	hops := balancedHops()
	total := 64 * MiB
	want := hops[0].ServiceTime(total) + hops[1].ServiceTime(total)
	if got := Makespan(hops, total, 1); got != want {
		t.Fatalf("Makespan(1) = %v, want store-and-forward sum %v", got, want)
	}
}

func TestMakespanImprovesWithBalancedHops(t *testing.T) {
	hops := balancedHops()
	total := 256 * MiB
	m1 := Makespan(hops, total, 1)
	m8 := Makespan(hops, total, 8)
	if m8 >= m1 {
		t.Fatalf("8 sub-chunks (%v) should beat store-and-forward (%v)", m8, m1)
	}
	// With two nearly equal hops the pipelined bound approaches the
	// bottleneck hop alone; expect at least a 1.5x model-level win.
	if float64(m1)/float64(m8) < 1.5 {
		t.Fatalf("speedup %.2f < 1.5 for balanced hops", float64(m1)/float64(m8))
	}
}

func TestMakespanLatencyPenalty(t *testing.T) {
	// Latency-dominated hops punish high sub-chunk counts.
	hops := []Hop{
		{Latency: 10 * sim.Millisecond, BW: 100e9},
		{Latency: 10 * sim.Millisecond, BW: 100e9},
	}
	if m2, m64 := Makespan(hops, 1*MiB, 2), Makespan(hops, 1*MiB, 64); m64 <= m2 {
		t.Fatalf("64 chunks (%v) should lose to 2 (%v) when latency dominates", m64, m2)
	}
}

func TestSizePicksMoreThanOneForBalancedHops(t *testing.T) {
	p := Size(balancedHops(), 256*MiB, 32, 256*KiB)
	if p.Count < 3 {
		t.Fatalf("Size picked %d sub-chunks; want >= 3 for balanced hops", p.Count)
	}
	if p.Predicted >= Makespan(balancedHops(), 256*MiB, 1) {
		t.Fatalf("chosen plan %v no better than store-and-forward", p)
	}
	if got := Makespan(balancedHops(), 256*MiB, p.Count); got != p.Predicted {
		t.Fatalf("Predicted %v != Makespan(%d) %v", p.Predicted, p.Count, got)
	}
}

func TestSizeDegeneratesForTinyPayload(t *testing.T) {
	// Payload below twice the min sub-chunk cannot split.
	p := Size(balancedHops(), 100*KiB, 32, 256*KiB)
	if p.Count != 1 || p.SubChunk != 100*KiB {
		t.Fatalf("tiny payload plan = %+v, want count 1", p)
	}
}

func TestSizeRespectsMinSubChunk(t *testing.T) {
	p := Size(balancedHops(), 4*MiB, 64, 1*MiB)
	if p.Count > 4 {
		t.Fatalf("count %d violates 1 MiB min sub-chunk on 4 MiB payload", p.Count)
	}
	if p.Count > 1 && p.SubChunk < 1*MiB {
		t.Fatalf("sub-chunk %d below the 1 MiB floor", p.SubChunk)
	}
}

func TestSizeSingleHopStaysMonolithic(t *testing.T) {
	// One hop, no consumer: pipelining cannot help, so ties must break to 1
	// and the streamed path stays identical to the monolithic move.
	one := []Hop{{Latency: 60 * sim.Microsecond, BW: 1.4e9}}
	p := Size(one, 256*MiB, 32, 256*KiB)
	if p.Count != 1 {
		t.Fatalf("single-hop Size picked %d sub-chunks, want 1", p.Count)
	}
}

func TestChunkRangeCoversPayloadExactly(t *testing.T) {
	p := Fixed(balancedHops(), 10*MiB+3, 7)
	var sum int64
	for i := 0; i < p.Count; i++ {
		off, n := p.ChunkRange(i)
		if off != sum {
			t.Fatalf("chunk %d starts at %d, want %d", i, off, sum)
		}
		if n <= 0 {
			t.Fatalf("chunk %d has size %d", i, n)
		}
		sum += n
	}
	if sum != p.Total {
		t.Fatalf("chunks cover %d bytes, want %d", sum, p.Total)
	}
}

func TestFixedClampsCount(t *testing.T) {
	if p := Fixed(nil, 3, 10); p.Count != 3 || p.SubChunk != 1 {
		t.Fatalf("Fixed(3 bytes, 10) = %+v, want 3 x 1", p)
	}
	if p := Fixed(nil, 0, 4); p.Count != 1 {
		t.Fatalf("Fixed(0 bytes) = %+v, want count 1", p)
	}
}
