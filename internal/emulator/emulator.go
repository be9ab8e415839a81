// Package emulator implements the paper's faster-storage projection
// (§V-D): "an emulator capable of performing a first-order projection by
// keeping track of reads/writes issued by application I/Os and considering
// read/write bandwidths of the storage. We also include the I/O time into
// the overall runtime (the other components being constant)."
//
// A Trace records every storage access of a measured run (via the device
// recorder hook); Project replays the byte counts under a different
// bandwidth assumption and rebuilds the total runtime as
// total - oldIOTime + newIOTime.
package emulator

import (
	"fmt"

	"repro/internal/device"
	"repro/internal/sim"
)

// Trace accumulates the I/O activity of one measured run.
type Trace struct {
	records []device.IORecord

	readBytes, writeBytes int64
	readTime, writeTime   sim.Time
}

// Attach registers the trace as dev's recorder and returns a detach func.
func (t *Trace) Attach(dev *device.Device) func() {
	dev.SetRecorder(t.Record)
	return func() { dev.SetRecorder(nil) }
}

// Record adds one I/O record (the device.Device recorder signature).
func (t *Trace) Record(r device.IORecord) {
	t.records = append(t.records, r)
	if r.Op == device.Read {
		t.readBytes += r.Bytes
		t.readTime += r.Time
	} else {
		t.writeBytes += r.Bytes
		t.writeTime += r.Time
	}
}

// Len returns the number of recorded accesses.
func (t *Trace) Len() int { return len(t.records) }

// Bytes returns total bytes moved per direction.
func (t *Trace) Bytes() (read, write int64) { return t.readBytes, t.writeBytes }

// IOTime returns the recorded I/O service time per direction.
func (t *Trace) IOTime() (read, write sim.Time) { return t.readTime, t.writeTime }

// Target describes a projected storage device, in the paper's (read/write)
// MB/s notation.
type Target struct {
	Name      string
	ReadMBps  float64
	WriteMBps float64
	// Latency is the per-request cost of the projected device; zero keeps
	// each record's size-independent share implicit (pure bandwidth
	// scaling, as the paper's first-order model does).
	Latency sim.Time
}

// String formats the target like the paper's axis labels, e.g. "2100/900".
func (tg Target) String() string {
	if tg.Name != "" {
		return tg.Name
	}
	return fmt.Sprintf("%.0f/%.0f", tg.ReadMBps, tg.WriteMBps)
}

// Projection is the emulator's output for one target.
type Projection struct {
	Target Target
	// IOTime is the projected total I/O time.
	IOTime sim.Time
	// Total is the projected overall runtime: measured total with the I/O
	// component swapped (other components constant, per the paper; if the
	// original run overlapped I/O with compute, the projection keeps the
	// same overlapped fraction).
	Total sim.Time
}

// Project replays the trace against the target bandwidths. measuredTotal
// and measuredIO come from the original run; overlap in the original run
// is preserved proportionally: newTotal = measuredTotal - f*measuredIO +
// f*newIO where f is the fraction of I/O time that contributed to the
// critical path (pass 1 for fully serial I/O).
func (t *Trace) Project(target Target, measuredTotal sim.Time, criticalFraction float64) Projection {
	if criticalFraction < 0 {
		criticalFraction = 0
	}
	if criticalFraction > 1 {
		criticalFraction = 1
	}
	var newIO sim.Time
	for _, r := range t.records {
		bw := target.ReadMBps * 1e6
		if r.Op == device.Write {
			bw = target.WriteMBps * 1e6
		}
		newIO += target.Latency + sim.TransferTime(r.Bytes, bw)
	}
	oldIO := t.readTime + t.writeTime
	delta := sim.Time(float64(newIO-oldIO) * criticalFraction)
	return Projection{
		Target: target,
		IOTime: newIO,
		Total:  measuredTotal + delta,
	}
}

// PaperSweep returns the §V-D target spectrum: from the measured
// 1400/600 MB/s SSD to the 3500/2100 "fastest PCIe SSDs on the market".
func PaperSweep() []Target {
	return []Target{
		{ReadMBps: 1400, WriteMBps: 600},
		{ReadMBps: 2000, WriteMBps: 1000},
		{ReadMBps: 2500, WriteMBps: 1400},
		{ReadMBps: 3000, WriteMBps: 1800},
		{ReadMBps: 3500, WriteMBps: 2100},
	}
}
