package storage

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"testing"
	"testing/quick"

	"repro/internal/device"
	"repro/internal/sim"
)

func newTestStore(e *sim.Engine) *Store {
	return NewStore(device.New(e, device.SSDProfile(64*device.MiB, 1400, 600)))
}

// runIO runs fn as a single simulation process and fails the test on error.
func runIO(t *testing.T, e *sim.Engine, fn func(p *sim.Proc)) {
	t.Helper()
	e.Spawn("io", fn)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestCreateWriteRead(t *testing.T) {
	e := sim.NewEngine()
	s := newTestStore(e)
	f, err := s.Create("a", 1024)
	if err != nil {
		t.Fatal(err)
	}
	runIO(t, e, func(p *sim.Proc) {
		msg := []byte("hello northup")
		if err := f.WriteAt(p, msg, 100); err != nil {
			t.Error(err)
		}
		got := make([]byte, len(msg))
		if err := f.ReadAt(p, got, 100); err != nil {
			t.Error(err)
		}
		if !bytes.Equal(got, msg) {
			t.Errorf("read %q", got)
		}
	})
	if e.Now() <= 0 {
		t.Fatal("I/O consumed no virtual time")
	}
}

func TestUnwrittenReadsZero(t *testing.T) {
	e := sim.NewEngine()
	s := newTestStore(e)
	f, _ := s.Create("a", 4096)
	runIO(t, e, func(p *sim.Proc) {
		f.WriteAt(p, []byte{1, 2, 3}, 0)
		buf := []byte{9, 9, 9, 9}
		if err := f.ReadAt(p, buf, 1); err != nil {
			t.Error(err)
		}
		want := []byte{2, 3, 0, 0} // partially past written region
		if !bytes.Equal(buf, want) {
			t.Errorf("read %v, want %v", buf, want)
		}
		buf2 := []byte{9, 9}
		f.ReadAt(p, buf2, 3000) // fully past written region
		if buf2[0] != 0 || buf2[1] != 0 {
			t.Errorf("far read %v, want zeros", buf2)
		}
	})
}

func TestRangeErrors(t *testing.T) {
	e := sim.NewEngine()
	s := newTestStore(e)
	f, _ := s.Create("a", 100)
	runIO(t, e, func(p *sim.Proc) {
		if err := f.ReadAt(p, make([]byte, 10), 95); err == nil {
			t.Error("read past EOF succeeded")
		}
		if err := f.WriteAt(p, make([]byte, 10), -1); err == nil {
			t.Error("negative-offset write succeeded")
		}
		if err := f.ReadAt(p, nil, 0); err != nil {
			t.Errorf("empty read failed: %v", err)
		}
	})
}

func TestNamespace(t *testing.T) {
	e := sim.NewEngine()
	s := newTestStore(e)
	if _, err := s.Create("b", 10); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Create("a", 10); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Create("a", 10); err == nil {
		t.Fatal("duplicate create succeeded")
	}
	if _, err := s.Open("c"); err == nil {
		t.Fatal("open of missing file succeeded")
	}
	names := s.List()
	if len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Fatalf("List = %v", names)
	}
	if err := s.Remove("a"); err != nil {
		t.Fatal(err)
	}
	if err := s.Remove("a"); err == nil {
		t.Fatal("double remove succeeded")
	}
}

func TestCapacityEnforced(t *testing.T) {
	e := sim.NewEngine()
	dev := device.New(e, device.SSDProfile(1000, 1400, 600))
	s := NewStore(dev)
	if _, err := s.Create("big", 800); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Create("more", 300); err == nil {
		t.Fatal("create beyond capacity succeeded")
	}
	if err := s.Remove("big"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Create("more", 300); err != nil {
		t.Fatalf("create after remove failed: %v", err)
	}
}

func TestUseAfterRemove(t *testing.T) {
	e := sim.NewEngine()
	s := newTestStore(e)
	f, _ := s.Create("a", 100)
	s.Remove("a")
	runIO(t, e, func(p *sim.Proc) {
		if err := f.ReadAt(p, make([]byte, 1), 0); err == nil {
			t.Error("read of removed file succeeded")
		}
		if err := f.WriteAt(p, []byte{1}, 0); err == nil {
			t.Error("write of removed file succeeded")
		}
	})
}

func TestStrided2DCostsMoreOnHDD(t *testing.T) {
	// The motivation for chunk-major preprocessing: a strided block read on
	// a seeky device is far slower than a contiguous read of the same bytes.
	elapsed := func(strided bool) sim.Time {
		e := sim.NewEngine()
		dev := device.New(e, device.HDDProfile(64*device.MiB))
		s := NewStore(dev)
		f, _ := s.Create("m", 32*device.MiB)
		buf := make([]byte, 64*1024)
		e.Spawn("io", func(p *sim.Proc) {
			if !strided {
				f.ReadAt(p, buf, 0)
				return
			}
			// 64 rows of 1 KiB whose starts lie 128 KiB apart.
			for r := 0; r < 64; r++ {
				f.ReadAt(p, buf[r*1024:(r+1)*1024], int64(r)*128*1024)
			}
		})
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return e.Now()
	}
	seq, str := elapsed(false), elapsed(true)
	if str < 10*seq {
		t.Fatalf("strided read %v vs sequential %v: expected >=10x penalty", str, seq)
	}
}

func TestRoundTripProperty(t *testing.T) {
	// Property: any write at any in-range offset reads back identically.
	f := func(data []byte, offRaw uint16) bool {
		if len(data) == 0 {
			return true
		}
		e := sim.NewEngine()
		s := newTestStore(e)
		size := int64(len(data)) + int64(offRaw) + 1
		file, err := s.Create("f", size)
		if err != nil {
			return false
		}
		ok := true
		e.Spawn("io", func(p *sim.Proc) {
			off := int64(offRaw)
			if err := file.WriteAt(p, data, off); err != nil {
				ok = false
				return
			}
			got := make([]byte, len(data))
			if err := file.ReadAt(p, got, off); err != nil {
				ok = false
				return
			}
			ok = bytes.Equal(got, data)
		})
		if err := e.Run(); err != nil {
			return false
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestNVMStoreAllowed(t *testing.T) {
	e := sim.NewEngine()
	dev := device.New(e, device.NVMProfile(device.GiB))
	s := NewStore(dev) // must not panic: NVM-as-storage is a paper use case
	if _, err := s.Create("x", 10); err != nil {
		t.Fatal(err)
	}
}

func TestMemStoreRejected(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for DRAM-backed store")
		}
	}()
	e := sim.NewEngine()
	NewStore(device.New(e, device.DRAMProfile(device.GiB)))
}

// hashOracle is File.Hash's reference: FNV-1a over a full-size Peek.
func hashOracle(t testing.TB, f *File) uint64 {
	t.Helper()
	buf := make([]byte, f.Size())
	if err := f.Peek(buf, 0); err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	h.Write(buf)
	return h.Sum64()
}

// preload is one functional write a hash case seeds before digesting.
type preload struct {
	off  int64
	data []byte
}

// checkHash creates a file of the given size, seeds it with loads and
// compares File.Hash with the oracle.
func checkHash(t testing.TB, size int64, loads []preload) {
	t.Helper()
	f, err := newTestStore(sim.NewEngine()).Create("f", size)
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range loads {
		if err := f.Preload(l.data, l.off); err != nil {
			t.Fatal(err)
		}
	}
	got, err := f.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if want := hashOracle(t, f); got != want {
		t.Fatalf("size %d: Hash = %#x, want %#x", size, got, want)
	}
}

// TestFileHashMatchesOracle pins File.Hash to FNV-1a over the file's whole
// logical content, the stored prefix and the zero tail extended in closed
// form alike, across empty, never-written, sparse and full files and sizes
// either side of powers of two. A removed file has no digest.
func TestFileHashMatchesOracle(t *testing.T) {
	pattern := func(n int) []byte {
		b := make([]byte, n)
		for i := range b {
			b[i] = byte(i*31 + 7)
		}
		return b
	}
	type hashCase struct {
		name  string
		size  int64
		loads []preload
	}
	cases := []hashCase{
		{"size 0", 0, nil},
		{"never written", 4096, nil},
		{"never written, one byte", 1, nil},
		{"middle only", 1000, []preload{{300, pattern(200)}}},
		{"zero byte written mid", 64, []preload{{10, []byte{0}}}},
		{"fully written", 777, []preload{{0, pattern(777)}}},
		{"last byte written", 513, []preload{{512, []byte{9}}}},
		{"two islands", 10000, []preload{{5, pattern(3)}, {6000, pattern(50)}}},
	}
	for _, size := range []int64{255, 256, 257, 1023, 1024, 1025, 65535, 65536, 65537, 1<<20 - 1, 1 << 20, 1<<20 + 1} {
		cases = append(cases,
			hashCase{fmt.Sprintf("size %d unwritten", size), size, nil},
			hashCase{fmt.Sprintf("size %d head", size), size, []preload{{0, pattern(17)}}},
			hashCase{fmt.Sprintf("size %d full", size), size, []preload{{0, pattern(int(size))}}})
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) { checkHash(t, tc.size, tc.loads) })
	}

	s := newTestStore(sim.NewEngine())
	f, _ := s.Create("gone", 100)
	s.Remove("gone")
	if _, err := f.Hash(); err == nil {
		t.Fatal("Hash of a removed file succeeded")
	}
}

// FuzzFileHash checks File.Hash against the oracle for files up to 1 MiB
// seeded with two arbitrary preloads, clipped to the file.
func FuzzFileHash(f *testing.F) {
	f.Add(uint32(0), uint32(0), []byte{}, uint32(0), []byte{})
	f.Add(uint32(4096), uint32(100), []byte("northup"), uint32(4000), []byte{0, 0, 1})
	f.Add(uint32(1<<20), uint32(1<<20-1), []byte{0xff}, uint32(0), []byte{1, 2, 3, 4})
	f.Fuzz(func(t *testing.T, size, off1 uint32, data1 []byte, off2 uint32, data2 []byte) {
		n := int64(size % (1<<20 + 1))
		clip := func(off uint32, data []byte) preload {
			o := int64(off) % (n + 1)
			return preload{o, data[:min(int64(len(data)), n-o)]}
		}
		checkHash(t, n, []preload{clip(off1, data1), clip(off2, data2)})
	})
}
