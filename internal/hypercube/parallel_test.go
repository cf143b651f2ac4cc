package hypercube

import (
	"runtime"
	"testing"

	"repro/internal/jacobi"
	"repro/internal/sim"
)

// parallelProblem builds an 8×8×(8·2^dim + 2) model problem whose
// interior planes decompose evenly over the machine's nodes.
func parallelProblem(p int) *jacobi.Problem {
	g := jacobi.NewModelProblem(8, 1e-4, 400)
	g.Nz = p*2 + 2
	g.F = make([]float64, g.Cells())
	g.U0 = make([]float64, g.Cells())
	g.Mask = make([]float64, g.Cells())
	for k := 0; k < g.Nz; k++ {
		for j := 0; j < g.N; j++ {
			for i := 0; i < g.N; i++ {
				idx := g.Index(i, j, k)
				g.F[idx] = 1
				if i > 0 && i < g.N-1 && j > 0 && j < g.N-1 && k > 0 && k < g.Nz-1 {
					g.Mask[idx] = 1
				}
			}
		}
	}
	return g
}

// TestSolveJacobiParallelMatchesSequential is the contract of the
// parallel driver: dispatching node sweeps across a worker pool is a
// host-side optimization only. Every simulated observable — residual
// series, iteration count, machine cycles, communication cycles and the
// solution field — must be bit-identical to the sequential run.
func TestSolveJacobiParallelMatchesSequential(t *testing.T) {
	solve := func(workers int) (*JacobiResult, *Machine) {
		m, err := New(smallCfg(), 3) // 8 nodes
		if err != nil {
			t.Fatal(err)
		}
		m.Workers = workers
		res, err := m.SolveJacobi(parallelProblem(m.P()))
		if err != nil {
			t.Fatal(err)
		}
		return res, m
	}
	seqRes, seqM := solve(1)
	if !seqRes.Converged {
		t.Fatalf("sequential run did not converge (residual %g)", seqRes.Residual)
	}
	for _, workers := range []int{8, -1, runtime.GOMAXPROCS(0)} {
		parRes, parM := solve(workers)
		if parRes.Iterations != seqRes.Iterations {
			t.Errorf("workers=%d: iterations %d vs %d", workers, parRes.Iterations, seqRes.Iterations)
		}
		if parRes.Cycles != seqRes.Cycles {
			t.Errorf("workers=%d: cycles %d vs %d", workers, parRes.Cycles, seqRes.Cycles)
		}
		if parM.MachineCycles != seqM.MachineCycles {
			t.Errorf("workers=%d: machine cycles %d vs %d", workers, parM.MachineCycles, seqM.MachineCycles)
		}
		if parM.CommCycles != seqM.CommCycles {
			t.Errorf("workers=%d: comm cycles %d vs %d", workers, parM.CommCycles, seqM.CommCycles)
		}
		if len(parRes.ResidualSeries) != len(seqRes.ResidualSeries) {
			t.Fatalf("workers=%d: residual series length %d vs %d",
				workers, len(parRes.ResidualSeries), len(seqRes.ResidualSeries))
		}
		for i := range seqRes.ResidualSeries {
			if parRes.ResidualSeries[i] != seqRes.ResidualSeries[i] {
				t.Fatalf("workers=%d: residual[%d] = %g vs %g",
					workers, i, parRes.ResidualSeries[i], seqRes.ResidualSeries[i])
			}
		}
		for i := range seqRes.U {
			if parRes.U[i] != seqRes.U[i] {
				t.Fatalf("workers=%d: u[%d] = %g vs %g", workers, i, parRes.U[i], seqRes.U[i])
			}
		}
	}
}

// TestSolveJacobiPlanCacheAggregation: the boards of a machine share
// one plan store, so a uniform 4-node solve compiles exactly its two
// distinct sweep instructions however many boards run them, every
// other dispatch is a hit, and the totals are the same at every worker
// count.
func TestSolveJacobiPlanCacheAggregation(t *testing.T) {
	var first sim.PlanCacheStats
	for _, workers := range []int{1, 4} {
		m, err := New(smallCfg(), 2) // 4 nodes
		if err != nil {
			t.Fatal(err)
		}
		m.Workers = workers
		res, err := m.SolveJacobi(parallelProblem(m.P()))
		if err != nil {
			t.Fatal(err)
		}
		pc := res.PlanCache
		var dispatched int64
		for _, nd := range m.Nodes {
			dispatched += nd.Stats.Instructions
		}
		if pc.Misses != 2 || pc.Entries != 2 || pc.Hits+pc.Misses != dispatched {
			t.Errorf("workers=%d: %+v over %d dispatches, want 2 misses, 2 entries, the rest hits",
				workers, pc, dispatched)
		}
		if workers == 1 {
			first = pc
		} else if pc != first {
			t.Errorf("workers=%d: %+v, workers=1: %+v", workers, pc, first)
		}
	}
}

// TestSparesShareMachineStore: the boards and spares of one machine are
// built over one store — one Inventory, one Format, one plan table — so
// a spare that takes over a dead slot replays the plans its predecessor
// compiled, and a kill-spare run compiles no more plans than the
// fault-free run of the same problem.
func TestSparesShareMachineStore(t *testing.T) {
	clean, _ := recoverySolve(t, 2, 1, 0, 0, nil)
	res, m := recoverySolve(t, 2, 1, 1, 0, killPlan(t, [2]int{3, 1}))
	if res.Recovery.SpareActivations != 1 || len(m.activated) != 1 {
		t.Fatalf("recovery %s, want one spare activated", res.Recovery)
	}
	boards := append(append([]*sim.Node(nil), m.Nodes...), m.activated...)
	for i, nd := range boards {
		if nd.Store() != m.Nodes[0].Store() || nd.Inv != m.Nodes[0].Inv || nd.F != m.Nodes[0].F {
			t.Errorf("board %d does not share the machine's store, Inventory and Format", i)
		}
	}
	if res.PlanCache.Misses > clean.PlanCache.Misses || res.PlanCache.Entries > clean.PlanCache.Entries {
		t.Errorf("kill-spare run compiled %+v, fault-free run %+v", res.PlanCache, clean.PlanCache)
	}
}
