package exp

import (
	"slices"
	"testing"

	"qdc/internal/dist/engine"
	"qdc/internal/dist/flood"
)

// TestMillionNodeStreamingSmoke is the CI gate on the million-node data path:
// the streaming loader must build the n=1,000,000 grid CSR without ever
// materialising adjacency maps, and the parallel backend must flood it to
// termination through the CSR's fast indexed interface only. The flood's
// ~2000 rounds are practical only because a round steps just the wavefront,
// so the test also gates the active-set round loop at scale, and its
// distances must equal a sequential BFS. The SlowNeighborCalls counter is the
// tripwire — any regression that routes the round loop (or the loader)
// through the allocating Neighbors fallback shows up as a non-zero count.
func TestMillionNodeStreamingSmoke(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation multiplies the million-node footprint")
	}
	if testing.Short() {
		t.Skip("million-node smoke skipped in short mode")
	}
	spec := TopologySpec{Family: FamilyGrid, Size: 1_000_000}
	csr, err := spec.BuildCSR(nil)
	if err != nil {
		t.Fatal(err)
	}
	if csr.N() != 1_000_000 {
		t.Fatalf("CSR has %d vertices, want 1000000", csr.N())
	}
	r, err := engine.NewParallel(csr, 64, 1)
	if err != nil {
		t.Fatal(err)
	}
	r.SetWorkers(4)
	res, err := flood.Run(r, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := csr.BFSDist(0)
	if !slices.Equal(res.Dist, want) {
		t.Fatal("flood distances disagree with BFS on the million-node grid")
	}
	if ecc := slices.Max(want); res.Rounds != ecc+2 {
		t.Errorf("flood took %d rounds, want ecc(0)+2 = %d", res.Rounds, ecc+2)
	}
	if calls := csr.SlowNeighborCalls(); calls != 0 {
		t.Errorf("the run touched the slow Neighbors path %d times; the streaming data plane must stay on the indexed interface", calls)
	}
}
