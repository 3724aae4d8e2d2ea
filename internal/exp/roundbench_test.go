package exp

import (
	"math/rand"
	"strings"
	"testing"

	"qdc/internal/dist/engine"
)

func TestFloodScenarioRuns(t *testing.T) {
	for _, backend := range []string{BackendLocal, BackendParallel} {
		s := Scenario{
			Name:      "grid36/flood/" + backend + "/B32",
			Topology:  TopologySpec{Family: FamilyGrid, Size: 36},
			Algorithm: AlgFlood,
			Backend:   backend,
			Bandwidth: 32,
			Seed:      7,
		}
		rec := RunScenario(s)
		if rec.Failed() {
			t.Fatalf("%s: %s %s", backend, rec.Error, rec.Detail)
		}
		// A 6x6 grid flooded from a corner: ecc(0) = 10, wave dies out two
		// rounds later.
		if rec.Stats.Rounds != 12 {
			t.Errorf("%s: rounds = %d, want 12", backend, rec.Stats.Rounds)
		}
		if !strings.Contains(rec.Detail, "ecc(0)=10") {
			t.Errorf("%s: detail %q lacks the eccentricity", backend, rec.Detail)
		}
	}
}

func TestFloodCompatibility(t *testing.T) {
	grid := TopologySpec{Family: FamilyGrid, Size: 4096}
	if ok, reason := Compatible(grid, AlgFlood, BackendSimulation, 64); ok {
		t.Error("flood must not run under the simulation backend")
	} else if !strings.Contains(reason, "simulation") {
		t.Errorf("unexpected reason %q", reason)
	}
	// One announcement needs tag + distance bits; B=8 cannot carry it at
	// n=4096 (2 + 12 bits) while B=16 can.
	if ok, _ := Compatible(grid, AlgFlood, BackendLocal, 8); ok {
		t.Error("flood at n=4096 must not fit in 8 bits per round")
	}
	if ok, reason := Compatible(grid, AlgFlood, BackendLocal, 16); !ok {
		t.Errorf("flood at n=4096 should fit in 16 bits per round: %s", reason)
	}
}

func TestScaleXLMatrixExpansion(t *testing.T) {
	m, ok := LookupMatrix("scale-xl")
	if !ok {
		t.Fatal("scale-xl matrix is not registered")
	}
	scenarios := m.Expand()
	// 3 topologies x 1 algorithm x 2 backends x 1 bandwidth, nothing skipped.
	if len(scenarios) != 6 {
		t.Fatalf("scale-xl expands to %d scenarios, want 6", len(scenarios))
	}
	for _, s := range scenarios {
		if s.Algorithm != AlgFlood {
			t.Errorf("scenario %s is not a flood run", s.Name)
		}
		if s.Topology.Size < 100_000 {
			t.Errorf("scenario %s has size %d, scale-xl promises n >= 100k", s.Name, s.Topology.Size)
		}
	}
}

func TestRoundbenchMatrixRuns(t *testing.T) {
	m, ok := LookupMatrix("roundbench")
	if !ok {
		t.Fatal("roundbench matrix is not registered")
	}
	scenarios := m.Expand()
	if len(scenarios) != 6 {
		t.Fatalf("roundbench expands to %d scenarios, want 6", len(scenarios))
	}
	rec := RunScenario(scenarios[0])
	if rec.Failed() {
		t.Fatalf("%s: %s %s", rec.Scenario.Name, rec.Error, rec.Detail)
	}
	if nps := NodeRoundsPerSec(rec); nps <= 0 {
		t.Errorf("NodeRoundsPerSec = %g on a live record, want > 0", nps)
	}
	rec.WallMillis = 0
	if nps := NodeRoundsPerSec(rec); nps != 0 {
		t.Errorf("NodeRoundsPerSec = %g on a canonicalised record, want 0", nps)
	}
}

// TestTopologySpecNodes pins TopologySpec.Nodes, the realised vertex count
// the throughput figures divide by, against the vertex count Build
// actually produces — including the families whose nominal Size is not
// their vertex count: the grid (rounded down to a square) and the
// lower-bound network (Size counts paths; lbnet6 has 121 vertices and
// lbnet10 at L=33 has 366).
func TestTopologySpecNodes(t *testing.T) {
	specs := []TopologySpec{
		{Family: FamilyPath, Size: 9},
		{Family: FamilyCycle, Size: 12},
		{Family: FamilyStar, Size: 7},
		{Family: FamilyComplete, Size: 6},
		{Family: FamilyRandom, Size: 20, Param: 0.3},
		{Family: FamilyTree, Size: 15},
		{Family: FamilyGrid, Size: 16},
		{Family: FamilyGrid, Size: 50},
		{Family: FamilyLBNet, Size: 6},
		{Family: FamilyLBNet, Size: 10, Param: 33},
		{Family: FamilyLBNet, Size: 2, Param: 3},
		{Family: FamilyLBNet, Size: 4, Param: 18},
	}
	for _, spec := range specs {
		built, err := spec.Build(rand.New(rand.NewSource(1)))
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		if got, want := spec.Nodes(), built.Graph.N(); got != want {
			t.Errorf("%s: Nodes() = %d, Build realises %d vertices", spec, got, want)
		}
	}
	for _, c := range []struct {
		spec TopologySpec
		want int
	}{
		{TopologySpec{Family: FamilyLBNet, Size: 6}, 121},
		{TopologySpec{Family: FamilyLBNet, Size: 10, Param: 33}, 366},
	} {
		if got := c.spec.Nodes(); got != c.want {
			t.Errorf("%s: Nodes() = %d, want %d", c.spec, got, c.want)
		}
	}
	// NodeRoundsPerSec counts the realised vertices: 121 × 10 rounds in 1 s.
	rec := Record{Scenario: Scenario{Topology: TopologySpec{Family: FamilyLBNet, Size: 6}}, WallMillis: 1000}
	rec.Stats.Rounds = 10
	if got := NodeRoundsPerSec(rec); got != 1210 {
		t.Errorf("NodeRoundsPerSec on lbnet6 = %g, want 1210", got)
	}
}

func TestFoldRecords(t *testing.T) {
	mk := func(name string, rounds int) Record {
		return Record{
			Scenario: Scenario{Name: name},
			Stats:    engine.Stats{Rounds: rounds},
			OK:       true,
		}
	}
	base := []Record{mk("b", 1), mk("a", 2), mk("c", 3)}
	updates := []Record{mk("b", 9), mk("d", 4)}
	out := FoldRecords(base, updates)
	if len(out) != 4 {
		t.Fatalf("folded %d records, want 4", len(out))
	}
	wantOrder := []string{"a", "b", "c", "d"}
	wantRounds := []int{2, 9, 3, 4}
	for i, r := range out {
		if r.Scenario.Name != wantOrder[i] || r.Stats.Rounds != wantRounds[i] {
			t.Errorf("out[%d] = %s/%d, want %s/%d",
				i, r.Scenario.Name, r.Stats.Rounds, wantOrder[i], wantRounds[i])
		}
	}
	if len(base) != 3 || base[0].Stats.Rounds != 1 {
		t.Error("FoldRecords modified its base input")
	}
	// Idempotence: folding the same updates again changes nothing.
	again := FoldRecords(out, updates)
	for i := range out {
		if again[i].Scenario.Name != out[i].Scenario.Name || again[i].Stats.Rounds != out[i].Stats.Rounds {
			t.Fatalf("second fold diverged at %d", i)
		}
	}
}
