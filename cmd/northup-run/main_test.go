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
