package disjointness_test

import (
	"fmt"
	"testing"

	"qdc/internal/dist/disjointness"
	"qdc/internal/dist/engine"
	"qdc/internal/graph"
)

// TestWideChunksAcrossBackends gates the boxed wide-chunk path, the one
// production user of boxed payloads: at B > 128 a chunk does not fit two
// payload words, so node 0 boxes each chunk and the interior nodes forward
// it. The run must reach the verdict a direct intersection gives, and its
// Stats must be the same on the local backend and on the parallel backend
// at every worker count.
func TestWideChunksAcrossBackends(t *testing.T) {
	const nodes, b = 12, 1000
	for _, bandwidth := range []int{129, 200, 256} {
		for seed := int64(1); seed <= 4; seed++ {
			x, y := deterministicInputs(b, seed)
			if seed%2 == 0 {
				// Clear y under x so both verdicts are exercised.
				for i := range y {
					y[i] &^= x[i]
				}
			}
			want := true
			for i := range x {
				if x[i] == 1 && y[i] == 1 {
					want = false
				}
			}
			local, err := engine.NewLocal(graph.Path(nodes), bandwidth, seed)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := disjointness.RunOn(local, x, y)
			if err != nil {
				t.Fatalf("B=%d seed %d local: %v", bandwidth, seed, err)
			}
			if ref.Disjoint != want {
				t.Errorf("B=%d seed %d local: verdict %v, direct intersection says %v", bandwidth, seed, ref.Disjoint, want)
			}
			for _, workers := range []int{1, 2, 4} {
				name := fmt.Sprintf("B=%d seed %d parallel workers=%d", bandwidth, seed, workers)
				par, err := engine.NewParallel(graph.Path(nodes), bandwidth, seed)
				if err != nil {
					t.Fatal(err)
				}
				par.SetWorkers(workers)
				got, err := disjointness.RunOn(par, x, y)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if got.Disjoint != want {
					t.Errorf("%s: verdict %v, direct intersection says %v", name, got.Disjoint, want)
				}
				if got.Stats != ref.Stats || got.Rounds != ref.Rounds {
					t.Errorf("%s: stats %+v in %d rounds, local %+v in %d", name, got.Stats, got.Rounds, ref.Stats, ref.Rounds)
				}
			}
		}
	}
}
