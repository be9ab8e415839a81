package core

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/device"
)

// TestAllocReservesRoundedBytes: a memory buffer holds its size rounded
// up to bufferAlign on its node's device.
func TestAllocReservesRoundedBytes(t *testing.T) {
	_, rt := newAPURuntime(t)
	dram := rt.tree.Node(1)
	_, err := rt.Run("rounding", func(c *Ctx) error {
		for _, tc := range []struct{ size, want int64 }{
			{1, 64}, {63, 64}, {64, 64}, {65, 128}, {1000, 1024},
		} {
			b, err := c.AllocAt(dram, tc.size)
			if err != nil {
				return err
			}
			if got := dram.Mem.Used(); got != tc.want {
				t.Errorf("%d-byte buffer reserves %d bytes, want %d", tc.size, got, tc.want)
			}
			if err := c.Release(b); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestBufferReleaseRestoresFree: releasing a buffer gives its rounded bytes
// back exactly, while the buffers still live keep theirs, and the space is
// there for the next allocation.
func TestBufferReleaseRestoresFree(t *testing.T) {
	_, rt := newAPURuntime(t)
	dram := rt.tree.Node(1)
	free := dram.Mem.Free()
	_, err := rt.Run("reuse", func(c *Ctx) error {
		x, err := c.AllocAt(dram, 1000)
		if err != nil {
			return err
		}
		y, err := c.AllocAt(dram, 1000)
		if err != nil {
			return err
		}
		if got := dram.Mem.Free(); got != free-2048 {
			t.Errorf("two 1000-byte buffers leave Free() = %d, want %d", got, free-2048)
		}
		if err := c.Release(x); err != nil {
			return err
		}
		if got := dram.Mem.Free(); got != free-1024 {
			t.Errorf("after releasing one Free() = %d, want %d", got, free-1024)
		}
		z, err := c.AllocAt(dram, dram.Mem.Free())
		if err != nil {
			return fmt.Errorf("released bytes not reusable: %w", err)
		}
		for _, b := range []*Buffer{y, z} {
			if err := c.Release(b); err != nil {
				return err
			}
		}
		if got := dram.Mem.Free(); got != free {
			t.Errorf("after releasing every buffer Free() = %d, want %d", got, free)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestAllocRejectsNonPositiveSize: a zero or negative size is refused and
// reserves nothing.
func TestAllocRejectsNonPositiveSize(t *testing.T) {
	_, rt := newAPURuntime(t)
	dram := rt.tree.Node(1)
	_, err := rt.Run("sizes", func(c *Ctx) error {
		for _, size := range []int64{0, -5} {
			if _, err := c.AllocAt(dram, size); err == nil {
				t.Errorf("%d-byte allocation succeeded", size)
			}
		}
		if got := dram.Mem.Used(); got != 0 {
			t.Errorf("refused sizes reserved %d bytes", got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestAllocExhaustionReportsRoundedNeed: a buffer its node cannot hold fails
// with the device's *device.ErrCapacity, whose Need is the rounded size, and
// reserves nothing.
func TestAllocExhaustionReportsRoundedNeed(t *testing.T) {
	_, rt := newAPURuntime(t)
	dram := rt.tree.Node(1)
	_, err := rt.Run("exhaust", func(c *Ctx) error {
		fill, err := c.AllocAt(dram, dram.Mem.Free()-64)
		if err != nil {
			return err
		}
		used := dram.Mem.Used()
		_, err = c.AllocAt(dram, 65)
		var ce *device.ErrCapacity
		if !errors.As(err, &ce) {
			return fmt.Errorf("err = %v, want *device.ErrCapacity", err)
		}
		if ce.Need != 128 || ce.Free != 64 {
			t.Errorf("ErrCapacity{Need: %d, Free: %d}, want {128, 64}", ce.Need, ce.Free)
		}
		if got := dram.Mem.Used(); got != used {
			t.Errorf("refused allocation moved Used() %d -> %d", used, got)
		}
		return c.Release(fill)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestBufferFreedTwicePanics: freeBuffer refuses a buffer whose space is
// already back on its node, naming the node.
func TestBufferFreedTwicePanics(t *testing.T) {
	_, rt := newAPURuntime(t)
	dram := rt.tree.Node(1)
	var b *Buffer
	_, err := rt.Run("free", func(c *Ctx) error {
		var err error
		if b, err = c.AllocAt(dram, 64); err != nil {
			return err
		}
		return c.Release(b)
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		msg := fmt.Sprint(recover())
		if !strings.Contains(msg, "freed twice") || !strings.Contains(msg, dram.String()) {
			t.Fatalf("panic = %q, want a second free naming %v", msg, dram)
		}
		if got := dram.Mem.Used(); got != 0 {
			t.Fatalf("second free moved Used() to %d", got)
		}
	}()
	_ = rt.freeBuffer(b)
}

// TestSetupBuffersAllOrNothing: SetupBuffers reserves its set at the node
// in order and ReleaseAll gives every byte back. When the k-th size does
// not fit, AllocAt's error comes back as it was made, the k buffers before
// it are released and the slice cleared, so Used() is where it started.
func TestSetupBuffersAllOrNothing(t *testing.T) {
	_, rt := newAPURuntime(t)
	dram := rt.tree.Node(1)
	sizes := []int64{1000, 64, 4096, 100}
	_, err := rt.Run("setup", func(c *Ctx) error {
		used := dram.Mem.Used()
		var bufs [4]*Buffer
		if err := c.SetupBuffers(dram, bufs[:], sizes...); err != nil {
			return err
		}
		for i, b := range bufs {
			if b.Node() != dram || b.Size() != sizes[i] {
				t.Errorf("buffer %d: %d bytes on %v, want %d on %v", i, b.Size(), b.Node(), sizes[i], dram)
			}
			if i > 0 && b.ID() <= bufs[i-1].ID() {
				t.Errorf("buffer %d (id %d) allocated before buffer %d (id %d)", i, b.ID(), i-1, bufs[i-1].ID())
			}
		}
		c.ReleaseAll(bufs[:])
		for i, b := range bufs {
			if !b.released {
				t.Errorf("ReleaseAll left buffer %d live", i)
			}
		}
		if got := dram.Mem.Used(); got != used {
			t.Errorf("after ReleaseAll Used() = %d, want %d", got, used)
		}

		free := dram.Mem.Free()
		for k := range sizes {
			tooBig := append([]int64(nil), sizes...)
			tooBig[k] = free + 1
			var held int64
			for _, s := range sizes[:k] {
				held += reservedBytes(s)
			}
			err := c.SetupBuffers(dram, bufs[:], tooBig...)
			var ce *device.ErrCapacity
			if !errors.As(err, &ce) || !strings.HasPrefix(err.Error(), "core: alloc on "+dram.String()+": ") {
				t.Errorf("size %d too big: err = %v, want AllocAt's *device.ErrCapacity", k, err)
			} else if ce.Need != reservedBytes(free+1) || ce.Free != free-held {
				t.Errorf("size %d too big: ErrCapacity{Need: %d, Free: %d}, want {%d, %d}",
					k, ce.Need, ce.Free, reservedBytes(free+1), free-held)
			}
			if got := dram.Mem.Used(); got != used {
				t.Errorf("size %d too big: Used() = %d after the failed set, want %d", k, got, used)
			}
			if bufs != [4]*Buffer{} {
				t.Errorf("size %d too big: the failed set left %v in the slice", k, bufs)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestSetupBuffersCountsMustMatch: a set given more or fewer sizes than
// buffers is a caller's bug and panics before anything is reserved.
func TestSetupBuffersCountsMustMatch(t *testing.T) {
	_, rt := newAPURuntime(t)
	dram := rt.tree.Node(1)
	_, err := rt.Run("mismatch", func(c *Ctx) error {
		defer func() {
			if recover() == nil {
				t.Error("3 buffers with 2 sizes did not panic")
			}
			if got := dram.Mem.Used(); got != 0 {
				t.Errorf("the refused set reserved %d bytes", got)
			}
		}()
		var bufs [3]*Buffer
		return c.SetupBuffers(dram, bufs[:], 64, 64)
	})
	if err != nil {
		t.Fatal(err)
	}
}
