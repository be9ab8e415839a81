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
