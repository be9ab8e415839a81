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

// TestOutageTargetsCheckedAgainstTree injects each outage on the built
// tree, as a run does: a node ID past the tree is refused naming the ID
// and the node count, a GPU outage at a node without a GPU naming the
// node, and outages the default apu tree honours pass.
func TestOutageTargetsCheckedAgainstTree(t *testing.T) {
	for _, tc := range []struct {
		args string
		want []string // empty: accepted
	}{
		{"-app gemm -n 256 -faults seed=1,offline=99:0:5", []string{"offline=99", "no node 99", "2 nodes"}},
		{"-app gemm -n 256 -faults seed=1,offline=2:0:5", []string{"no node 2", "2 nodes"}},
		{"-app hotspot -n 256 -steal -faults seed=1,offline=0/gpu:0:5", []string{"offline=0/gpu", "node0(ssd,L0)", "no GPU"}},
		{"-app gemm -n 256 -faults seed=1,offline=1:0:5", nil},
		{"-app hotspot -n 256 -steal -faults seed=1,offline=1/gpu:0:5", nil},
	} {
		o, err := parseFlags(strings.Fields(tc.args))
		if err == nil {
			err = o.validate()
		}
		if err != nil {
			t.Fatalf("%s: %v", tc.args, err)
		}
		e := northup.NewEngine()
		tree, err := buildTree(e, o.preset, o.spec, o.storageMiB, o.dramMiB)
		if err != nil {
			t.Fatal(err)
		}
		_, err = o.plan.Inject(e, tree)
		switch {
		case len(tc.want) == 0 && err != nil:
			t.Errorf("%s: refused: %v", tc.args, err)
		case len(tc.want) > 0 && err == nil:
			t.Errorf("%s: accepted", tc.args)
		case len(tc.want) > 0:
			for _, want := range tc.want {
				if !strings.Contains(err.Error(), want) {
					t.Errorf("%s: message %q does not name %s", tc.args, err, want)
				}
			}
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
		{"-app hotspot -iters -3", "-iters -3"},
		{"-app spmv -iters -1", "-iters -1"},
		{"-app spmv -nnz -4", "-nnz -4"},
		{"-app spmv -nnz 0", "-nnz 0"},
		{"-app spmv -cache -cache-share -1", "-cache-share -1"},
		{"-app spmv -cache -cache-share 5", "-cache-share 5"},
		{"-app spmv -cache -cache-share NaN", "-cache-share NaN"},
		{"-app gemm -storage-mib 0", "-storage-mib 0"},
		{"-app gemm -storage-mib -1", "-storage-mib -1"},
		{"-app gemm -dram-mib 0", "-dram-mib 0"},
		{"-app gemm -dram-mib -1", "-dram-mib -1"},
		{"-app spmv -cache -cache-mib -5", "-cache-mib -5"},
		{"-app gemm -streamed -subchunks -3", "-subchunks -3"},
		{"-app gemm -faults seed=1,rate=0.05 -retries -2", "-retries -2"},
		{"-app gemm -trace-out t.json -trace-events -4", "-trace-events -4"},
		{"-app gemm -metrics-out m.json -sample-tick-ms -2", "-sample-tick-ms -2"},
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
		"-app spmv -nnz 1 -iters 0 -cache -cache-share 1",
		"-app hotspot -iters 0 -cache -cache-share 0",
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

// TestOneTaskAffinityGraphRefused runs gemm's affinity task graph on the
// default topology: a matrix that fits one shard makes a one-task graph,
// which must be refused naming -affinity, the shard count and -chunk, while
// a -chunk that splits it passes.
func TestOneTaskAffinityGraphRefused(t *testing.T) {
	for _, tc := range []struct {
		args string
		ok   bool
	}{
		{"-app gemm -n 256 -affinity on", false},
		{"-app gemm -n 256 -affinity on -chunk 128", true},
	} {
		o, err := parseFlags(strings.Fields(tc.args))
		if err != nil {
			t.Fatal(err)
		}
		e := northup.NewEngine()
		tree, err := buildTree(e, o.preset, o.spec, o.storageMiB, o.dramMiB)
		if err != nil {
			t.Fatal(err)
		}
		res, ts, err := northup.GEMMTasks(northup.NewRuntime(e, tree, northup.DefaultOptions()),
			northup.GEMMConfig{N: o.n, Seed: 1, ShardDim: o.chunk}, northup.TaskOptions{Affinity: true})
		if err != nil {
			t.Fatal(err)
		}
		err = checkPlacement(ts, res.ShardDim)
		switch {
		case tc.ok && err != nil:
			t.Errorf("%s: refused: %v", tc.args, err)
		case !tc.ok && err == nil:
			t.Errorf("%s: one-task graph (%d tasks) accepted", tc.args, ts.Tasks)
		case !tc.ok:
			for _, want := range []string{"-affinity", "1 shard", "-chunk"} {
				if !strings.Contains(err.Error(), want) {
					t.Errorf("%s: message %q does not name %s", tc.args, err, want)
				}
			}
		}
	}
}

// TestValidateRefusesNegativeChunk: a -chunk below 0 is refused naming the
// flag, not the library field it would reach (hotspot's ChunkDim, gemm's
// shard, the steal config's chunk); 0 still derives it.
func TestValidateRefusesNegativeChunk(t *testing.T) {
	for _, args := range []string{
		"-app hotspot -chunk -128",
		"-app gemm -chunk -128",
		"-app hotspot -steal -chunk -128",
		"-app gemm -affinity on -chunk -1",
	} {
		o, err := parseFlags(strings.Fields(args))
		if err != nil {
			t.Fatalf("%s: parse: %v", args, err)
		}
		err = o.validate()
		if err == nil || !strings.HasPrefix(err.Error(), "-chunk -") {
			t.Errorf("%s: err = %v, want a refusal naming -chunk", args, err)
		}
	}
	o, err := parseFlags(strings.Fields("-app hotspot -chunk 0"))
	if err == nil {
		err = o.validate()
	}
	if err != nil {
		t.Errorf("-chunk 0: %v", err)
	}
}

// TestValidateRefusesOverflowingCacheMiB: a -cache-mib whose bytes do not
// fit in int64 is refused naming the flag, where the shift to bytes used to
// wrap it to another capacity; the largest size that fits passes.
func TestValidateRefusesOverflowingCacheMiB(t *testing.T) {
	for _, tc := range []struct {
		mib    string
		refuse bool
	}{
		{"9000000000000", true},
		{"8796093022208", true},
		{"9223372036854775807", true},
		{"8796093022207", false},
		{"0", false},
	} {
		args := "-app spmv -n 65536 -iters 2 -phantom -cache -cache-mib " + tc.mib
		o, err := parseFlags(strings.Fields(args))
		if err != nil {
			t.Fatalf("%s: parse: %v", args, err)
		}
		err = o.validate()
		switch {
		case tc.refuse && (err == nil || !strings.HasPrefix(err.Error(), "-cache-mib "+tc.mib+":")):
			t.Errorf("%s: err = %v, want a refusal naming -cache-mib", args, err)
		case !tc.refuse && err != nil:
			t.Errorf("%s: refused: %v", args, err)
		}
	}
}
