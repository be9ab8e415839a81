package serve

import (
	"fmt"
	"hash/fnv"
	"testing"
)

// recordsDigest folds every job record's tenant, id, workload, arrive,
// start and done times, result hash and error into one FNV-1a digest.
func recordsDigest(recs []JobRecord) uint64 {
	h := fnv.New64a()
	for _, r := range recs {
		fmt.Fprintf(h, "%s|%d|%s|%d|%d|%d|%#x|%s\n",
			r.Tenant, r.ID, r.Workload, r.ArriveNS, r.StartNS, r.DoneNS, r.Hash, r.Err)
	}
	return h.Sum64()
}

// TestRecordsGolden pins the job records of one phantom and one functional
// determinism scenario to digests taken from a build that hashed each
// output file by reading it in full. A same-build rerun cannot catch a
// result hash that is wrong but deterministic; this can. The phantom case
// hashes unwritten output files, so it covers the closed-form zero tail;
// the functional case covers stored bytes.
func TestRecordsGolden(t *testing.T) {
	for _, tc := range []struct {
		name    string
		seed    int64
		phantom bool
		want    uint64
	}{
		{"phantom", 7, true, 0xcfab41fa913af0a4},
		{"functional", 3, false, 0xe593b13990971fb9},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, _, _, recs := detRun(t, detScenario(tc.seed), tc.phantom)
			if got := recordsDigest(recs); got != tc.want {
				t.Errorf("records digest = %#x, want %#x (%d records)", got, tc.want, len(recs))
			}
		})
	}
}
