package main

import (
	"strings"
	"testing"

	"repro/northup"
)

// TestCheckOutagesRefusesIgnoredGPUOutage checks a GPU outage is accepted
// only where a scheduler reads it (hotspot -steal) and refused elsewhere
// with a message naming the outage and -steal; whole-node outages pass
// everywhere.
func TestCheckOutagesRefusesIgnoredGPUOutage(t *testing.T) {
	gpu, err := northup.ParseFaults("seed=7,offline=1/gpu:0:2")
	if err != nil {
		t.Fatal(err)
	}
	node, err := northup.ParseFaults("seed=7,offline=1:0:2")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		plan  *northup.FaultPlan
		app   string
		steal bool
		ok    bool
	}{
		{gpu, "hotspot", true, true},
		{gpu, "hotspot", false, false},
		{gpu, "gemm", false, false},
		{gpu, "spmv", true, false}, // -steal is a hotspot flag
		{node, "hotspot", false, true},
		{node, "gemm", false, true},
	} {
		err := checkOutages(tc.plan, tc.app, tc.steal)
		if tc.ok {
			if err != nil {
				t.Errorf("%s steal=%v: refused: %v", tc.app, tc.steal, err)
			}
			continue
		}
		if err == nil {
			t.Errorf("%s steal=%v: GPU outage accepted", tc.app, tc.steal)
		} else if msg := err.Error(); !strings.Contains(msg, "offline=1/gpu") || !strings.Contains(msg, "-steal") {
			t.Errorf("%s steal=%v: message %q names neither the outage nor -steal", tc.app, tc.steal, msg)
		}
	}
}

// TestValidateRefusesIgnoredFlags runs the validation table over every
// combination a run would silently ignore: each must be refused with a
// message naming the flag.
func TestValidateRefusesIgnoredFlags(t *testing.T) {
	for _, tc := range []struct {
		args string
		flag string // the flag the refusal must name
	}{
		{"-app spmv -streamed", "-streamed"},
		{"-app spmv -subchunks 4", "-subchunks"},
		{"-app gemm -affinity on -streamed", "-streamed"},
		{"-app spmv -affinity on -streamed -subchunks 2", "-streamed"},
		{"-app hotspot -steal -streamed", "-streamed"},
		{"-app hotspot -steal -subchunks 3", "-subchunks"},
		{"-app gemm -preset inmemory -streamed", "-streamed"},
		{"-app hotspot -preset inmemory -subchunks 2", "-subchunks"},
		{"-app gemm -subchunks 3", "-subchunks"},
		{"-app hotspot -subchunks 3", "-subchunks"},
		{"-app spmv -chunk 128", "-chunk"},
		{"-app spmv -affinity on -chunk 128", "-chunk"},
		{"-app gemm -preset inmemory -chunk 128", "-chunk"},
		{"-app gemm -iters 4", "-iters"},
		{"-app spmv -preset inmemory -iters 4", "-iters"},
		{"-app gemm -nnz 8", "-nnz"},
		{"-app hotspot -nnz 8", "-nnz"},
		{"-app gemm -steal", "-steal"},
		{"-app spmv -steal", "-steal"},
		{"-app hotspot -affinity on", "-affinity on"},
		{"-app gemm -prefetch", "-prefetch"},
		{"-app gemm -cache-mib 4", "-cache-mib"},
		{"-app spmv -cache-share 0.25", "-cache-share"},
		{"-app gemm -retries 3", "-retries"},
		{"-app gemm -sample-tick-ms 5", "-sample-tick-ms"},
		{"-app gemm -trace-out t.json -sample-tick-ms 5", "-sample-tick-ms"},
		{"-app gemm -trace-events 1000", "-trace-events"},
		{"-app gemm -metrics-out m.json -trace-events 1000", "-trace-events"},
		{"-app gemm -spec tree.json -dram-mib 64", "-dram-mib"},
		{"-app gemm -spec tree.json -storage-mib 64", "-storage-mib"},
		{"-app gemm -preset inmemory -dram-mib 64", "-dram-mib"},
		{"-app gemm -faults seed=7,offline=1/gpu:0:2", "-faults"},
		{"-app hotspot -faults seed=7,offline=1/gpu:0:2", "-faults"},
		{"-app gemm -affinity maybe", "-affinity"},
	} {
		o, err := parseFlags(strings.Fields(tc.args))
		if err != nil {
			t.Fatalf("%s: parse: %v", tc.args, err)
		}
		err = o.validate()
		if err == nil {
			t.Errorf("%s: accepted", tc.args)
		} else if !strings.Contains(err.Error(), tc.flag) {
			t.Errorf("%s: message %q does not name %s", tc.args, err, tc.flag)
		}
	}
}

// TestValidateAcceptsHonouredFlags keeps the table from refusing a flag
// the run reads: each app and schedule with the flags it honours.
func TestValidateAcceptsHonouredFlags(t *testing.T) {
	for _, args := range []string{
		"-app gemm -n 256 -chunk 128 -streamed -subchunks 3 -preset discrete",
		"-app gemm -n 512 -chunk 128 -phantom -cache -affinity on -faults seed=42,rate=0.05 -retries 3",
		"-app gemm -preset inmemory -storage-mib 64",
		"-app hotspot -n 256 -chunk 64 -iters 4 -streamed -subchunks 2",
		"-app hotspot -n 256 -steal -chunk 64 -iters 2 -faults seed=7,offline=1/gpu:0:2",
		"-app hotspot -preset inmemory -iters 3",
		"-app spmv -n 65536 -iters 4 -nnz 8 -cache -prefetch -cache-mib 4 -cache-share 0.25",
		"-app spmv -affinity on -iters 2",
		"-app spmv -preset inmemory -nnz 8",
		"-app gemm -affinity off -dram-mib 32 -storage-mib 512",
		"-app gemm -trace-out t.json -trace-events 1000 -metrics-prom m.prom -sample-tick-ms 1",
		"-app gemm -metrics -trace-events 1000 -metrics-out m.json -sample-tick-ms 1 -stats",
	} {
		o, err := parseFlags(strings.Fields(args))
		if err != nil {
			t.Fatalf("%s: parse: %v", args, err)
		}
		if err := o.validate(); err != nil {
			t.Errorf("%s: refused: %v", args, err)
		}
	}
}

// TestAppIters checks -iters defaults per app: eight stencil steps for
// hotspot, one spmv pass, and an explicit value wins for both. For spmv
// the count must reach the run's config as power-iteration passes.
func TestAppIters(t *testing.T) {
	for _, tc := range []struct {
		args string
		want int
	}{
		{"-app hotspot", 8},
		{"-app hotspot -iters 3", 3},
		{"-app spmv", 1},
		{"-app spmv -iters 4", 4},
	} {
		o, err := parseFlags(strings.Fields(tc.args))
		if err != nil {
			t.Fatal(err)
		}
		got := o.appIters()
		if o.app == "spmv" {
			got = o.spmvConfig().Iters
		}
		if got != tc.want {
			t.Errorf("%s: iters %d, want %d", tc.args, got, tc.want)
		}
	}
}
