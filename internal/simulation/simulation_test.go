package simulation

import (
	"errors"
	"math"
	"strconv"
	"testing"

	"qdc/internal/congest"
	"qdc/internal/dist/verify"
	"qdc/internal/graph"
	"qdc/internal/lbnetwork"
)

func buildNetwork(t *testing.T, gamma, l int) *lbnetwork.Network {
	t.Helper()
	nw, err := lbnetwork.New(gamma, l)
	if err != nil {
		t.Fatal(err)
	}
	if nw.EndpointCount()%2 != 0 {
		t.Fatalf("test setup: Γ+K = %d must be even", nw.EndpointCount())
	}
	return nw
}

func TestNewRunnerValidation(t *testing.T) {
	if _, err := NewRunner(nil, 64, 1); !errors.Is(err, ErrNilNetwork) {
		t.Fatalf("err = %v, want ErrNilNetwork", err)
	}
	if strconv.IntSize == 64 {
		tooWide := math.MaxInt32
		tooWide++
		if _, err := NewRunner(buildNetwork(t, 6, 17), tooWide, 1); !errors.Is(err, congest.ErrBandwidthTooLarge) {
			t.Fatalf("err = %v, want congest.ErrBandwidthTooLarge", err)
		}
	}
}

// Theorem 3.5's accounting: an algorithm that finishes within the L/2 − 2
// round budget induces a three-party simulation in which Carol and David
// together send at most O(B·log L·T) bits. The degree-two check (the first
// step of the paper's own Ham/MST reductions) is such an algorithm.
func TestTheorem35AccountingDegreeCheck(t *testing.T) {
	nw := buildNetwork(t, 8, 257)
	u := nw.EndpointCount()

	for name, build := range map[string]func() ([][2]int, [][2]int, error){
		"hamiltonian": func() ([][2]int, [][2]int, error) { return graph.CyclePairings(u) },
		"two-cycles":  func() ([][2]int, [][2]int, error) { return graph.TwoCyclePairings(u) },
	} {
		t.Run(name, func(t *testing.T) {
			ec, ed, err := build()
			if err != nil {
				t.Fatal(err)
			}
			emb, err := nw.Embed(ec, ed)
			if err != nil {
				t.Fatal(err)
			}
			r, err := NewRunner(nw, 64, 1)
			if err != nil {
				t.Fatal(err)
			}
			out, err := verify.DegreeTwoCheck(r, nw.Graph, emb.M)
			if err != nil {
				t.Fatal(err)
			}
			// Every vertex of M has degree 2 by construction (paths/highways
			// plus one matching edge at each end), so the check accepts.
			if !out.Answer {
				t.Fatal("degree-two check should accept the embedded M")
			}
			rep := r.Report()
			if !rep.WithinRoundBudget {
				t.Fatalf("degree check took %d rounds, budget %d", rep.Rounds, nw.MaxSimulationRounds())
			}
			if !rep.WithinTheoremBound {
				t.Fatalf("server-model cost %d exceeds theorem bound %d", rep.ServerModelCost, rep.TheoremBound)
			}
			if rep.ServerModelCost <= 0 {
				t.Fatal("the simulation should charge some Carol/David communication")
			}
			if rep.CarolBits+rep.DavidBits != rep.ServerModelCost {
				t.Fatal("cost bookkeeping inconsistent")
			}
			if r.FreeServerBits() == 0 {
				t.Fatal("server should forward some messages for free")
			}
		})
	}
}

// The charged cost is tiny compared with the total traffic of the algorithm:
// that is the whole point of the Server-model accounting (only the O(log L)
// highway frontier edges are charged per round).
func TestChargedCostMuchSmallerThanTotalTraffic(t *testing.T) {
	nw := buildNetwork(t, 7, 33)
	u := nw.EndpointCount()
	ec, ed, err := graph.CyclePairings(u)
	if err != nil {
		t.Fatal(err)
	}
	emb, err := nw.Embed(ec, ed)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRunner(nw, 64, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := verify.DegreeTwoCheck(r, nw.Graph, emb.M); err != nil {
		t.Fatal(err)
	}
	total := r.Stats().Bits
	charged := r.ServerModelCost()
	if charged*4 > total {
		t.Fatalf("charged cost %d is not small compared with total traffic %d", charged, total)
	}
	if r.CrossingMessages() == 0 {
		t.Fatal("some messages must cross ownership regions")
	}
	if r.Bandwidth() != 64 || r.Size() != nw.N() {
		t.Fatal("runner metadata wrong")
	}
}

// The contrapositive side of Theorem 3.5: a full, correct Hamiltonian-cycle
// verification cannot finish within the L/2 − 2 budget on this network (that
// is exactly what the Ω̃(√n) lower bound predicts); the simulation still
// runs, reports the correct answer, and flags that the round budget was
// exceeded.
func TestFullVerificationExceedsRoundBudget(t *testing.T) {
	nw := buildNetwork(t, 6, 17)
	u := nw.EndpointCount()
	ec, ed, err := graph.CyclePairings(u)
	if err != nil {
		t.Fatal(err)
	}
	emb, err := nw.Embed(ec, ed)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRunner(nw, 64, 1)
	if err != nil {
		t.Fatal(err)
	}
	out, err := verify.HamiltonianCycle(r, nw.Graph, emb.M)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Answer {
		t.Fatal("embedded Hamiltonian instance should verify as Hamiltonian")
	}
	rep := r.Report()
	if rep.WithinRoundBudget {
		t.Fatalf("a full verification in %d rounds would violate the lower bound (budget %d)",
			rep.Rounds, nw.MaxSimulationRounds())
	}

	// A non-Hamiltonian embedded instance is correctly rejected as well.
	ec2, ed2, err := graph.KCyclePairings(u, 2)
	if err != nil {
		t.Fatal(err)
	}
	emb2, err := nw.Embed(ec2, ed2)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := NewRunner(nw, 64, 1)
	if err != nil {
		t.Fatal(err)
	}
	out2, err := verify.HamiltonianCycle(r2, nw.Graph, emb2.M)
	if err != nil {
		t.Fatal(err)
	}
	if out2.Answer {
		t.Fatal("two-cycle instance accepted as Hamiltonian")
	}
}

// The per-round bound scales with B and log L as the theorem states.
func TestPerRoundBoundScaling(t *testing.T) {
	small := buildNetwork(t, 6, 17)
	large := buildNetwork(t, 6, 65)
	rSmall, err := NewRunner(small, 64, 1)
	if err != nil {
		t.Fatal(err)
	}
	rLarge, err := NewRunner(large, 64, 1)
	if err != nil {
		t.Fatal(err)
	}
	if rLarge.PerRoundBound() <= rSmall.PerRoundBound() {
		t.Fatal("per-round bound should grow with log L")
	}
	rWide, err := NewRunner(small, 128, 1)
	if err != nil {
		t.Fatal(err)
	}
	if rWide.PerRoundBound() != 2*rSmall.PerRoundBound() {
		t.Fatal("per-round bound should scale linearly with B")
	}
}
