package hypercube

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/topo"
)

// killPlan builds a plan with one permanent kill per (sweep, rank).
func killPlan(t *testing.T, kills ...[2]int) *FaultPlan {
	t.Helper()
	var evs []FaultEvent
	for _, k := range kills {
		evs = append(evs, FaultEvent{Sweep: k[0], Phase: PhaseDispatch, Rank: k[1], Kind: FaultKillForever})
	}
	plan, err := NewFaultPlan(evs...)
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

// recoverySolve runs the parallel model problem on a 2^dim machine
// with the given plan and spare pool.
func recoverySolve(t *testing.T, dim, workers, spares, every int, plan *FaultPlan) (*JacobiResult, *Machine) {
	t.Helper()
	m, err := New(smallCfg(), dim)
	if err != nil {
		t.Fatal(err)
	}
	m.Workers = workers
	m.Faults = plan
	m.CheckpointEvery = every
	if spares > 0 {
		if err := m.AddSpares(spares); err != nil {
			t.Fatal(err)
		}
	}
	res, err := m.SolveJacobi(parallelProblem(m.P()))
	if err != nil {
		t.Fatalf("recovered solve failed: %v", err)
	}
	return res, m
}

// TestPermanentKillMatrix is the acceptance matrix of the degraded-mode
// recovery protocol: a permanent node death at any rank position (first,
// middle, last), at different sweeps, on machines of 2, 4 and 8 nodes,
// recovered either by a hot spare or by a shrinking re-partition, must
// be mathematically invisible — grids, residual series and iteration
// trajectory bit-identical to the fault-free run — and deterministic
// across worker counts, clocks included.
func TestPermanentKillMatrix(t *testing.T) {
	for _, dim := range []int{1, 2, 3} {
		p := 1 << dim
		clean, cm := recoverySolve(t, dim, 0, 0, 0, nil)
		_ = cm
		ranks := []int{0, p / 2, p - 1}
		if p == 2 {
			ranks = []int{0, 1}
		}
		for _, rank := range ranks {
			for _, sweep := range []int{1, 3} {
				for _, spares := range []int{0, 1} {
					mode := "shrink"
					if spares > 0 {
						mode = "spare"
					}
					t.Run(fmt.Sprintf("p%d/rank%d/sweep%d/%s", p, rank, sweep, mode), func(t *testing.T) {
						res, m := recoverySolve(t, dim, 4, spares, 0, killPlan(t, [2]int{sweep, rank}))
						assertSameSolve(t, res, clean)
						if res.Recovery.Recoveries != 1 || res.Recovery.DeadRanks != 1 {
							t.Fatalf("recovery stats: %s", res.Recovery)
						}
						if res.Recovery.BuddyRestores != 1 {
							t.Fatalf("expected a buddy restore: %s", res.Recovery)
						}
						lv := m.Liveness()
						if spares > 0 {
							if res.Recovery.SpareActivations != 1 || lv.Live != p || lv.SparesUsed != 1 || lv.SparesFree != 0 {
								t.Fatalf("spare accounting: %s, liveness %+v", res.Recovery, lv)
							}
						} else {
							if res.Recovery.Shrinks != 1 || lv.Live != p-1 {
								t.Fatalf("shrink accounting: %s, liveness %+v", res.Recovery, lv)
							}
						}
						if len(lv.DeadAddrs) != 1 || lv.DeadAddrs[0] != topo.Gray(rank) {
							t.Fatalf("dead addresses %v, want [%d]", lv.DeadAddrs, topo.Gray(rank))
						}
						// Recovery clocks are seeded-plan functions: a second
						// run at a different worker count must reproduce them
						// bit for bit.
						again, _ := recoverySolve(t, dim, 1, spares, 0, killPlan(t, [2]int{sweep, rank}))
						if again.Cycles != res.Cycles {
							t.Fatalf("recovered clocks differ across workers: %d vs %d", again.Cycles, res.Cycles)
						}
					})
				}
			}
		}
	}
}

// TestSpareExhaustionFallsBackToShrink loses two ranks at one barrier
// with a single spare: the lowest dead slot takes the spare, the other
// is retired, and the run stays bit-identical.
func TestSpareExhaustionFallsBackToShrink(t *testing.T) {
	clean, _ := recoverySolve(t, 2, 0, 0, 0, nil)
	res, m := recoverySolve(t, 2, 4, 1, 0, killPlan(t, [2]int{2, 0}, [2]int{2, 2}))
	assertSameSolve(t, res, clean)
	r := res.Recovery
	if r.Recoveries != 1 || r.DeadRanks != 2 || r.SpareActivations != 1 || r.Shrinks != 1 {
		t.Fatalf("spare+shrink stats: %s", r)
	}
	if lv := m.Liveness(); lv.Live != 3 || lv.SparesUsed != 1 {
		t.Fatalf("liveness %+v", lv)
	}
	if m.RecoveryCounters.Recoveries != 1 {
		t.Fatalf("machine recovery counters not accumulated: %s", m.RecoveryCounters)
	}
}

// TestSequentialKillsRecoverTwice loses two ranks at different sweeps:
// the first takes the spare, the second shrinks the already-recovered
// ring, and the result still matches the clean run bit for bit.
func TestSequentialKillsRecoverTwice(t *testing.T) {
	clean, _ := recoverySolve(t, 2, 0, 0, 0, nil)
	res, m := recoverySolve(t, 2, 4, 1, 0, killPlan(t, [2]int{2, 1}, [2]int{4, 2}))
	assertSameSolve(t, res, clean)
	r := res.Recovery
	if r.Recoveries != 2 || r.DeadRanks != 2 || r.SpareActivations != 1 || r.Shrinks != 1 {
		t.Fatalf("two-round stats: %s", r)
	}
	if lv := m.Liveness(); lv.Live != 3 || len(lv.DeadAddrs) != 2 {
		t.Fatalf("liveness %+v", lv)
	}
}

// TestRecoveryCheckpointFallback kills a rank and its buddy partner at
// one barrier: the mirror is gone with them, so recovery restores from
// the last checkpoint and re-executes the sweeps since — still
// bit-identical, with the resweeps counted.
func TestRecoveryCheckpointFallback(t *testing.T) {
	clean, _ := recoverySolve(t, 2, 0, 0, 0, nil)
	res, _ := recoverySolve(t, 2, 4, 0, 2, killPlan(t, [2]int{5, 1}, [2]int{5, 2}))
	assertSameSolve(t, res, clean)
	r := res.Recovery
	if r.CheckpointRestores != 1 || r.BuddyRestores != 0 {
		t.Fatalf("restore source: %s", r)
	}
	if r.ResweptSweeps != 1 { // checkpoint at sweep 4, death at sweep 5
		t.Fatalf("resweeps = %d, want 1 (%s)", r.ResweptSweeps, r)
	}
}

// TestUnrecoverableDeathSurfaces: with mirroring disabled and no
// checkpoint there is nothing to restore from — the solve must fail
// with a clear error, not a wrong answer.
func TestUnrecoverableDeathSurfaces(t *testing.T) {
	m, err := New(smallCfg(), 2)
	if err != nil {
		t.Fatal(err)
	}
	m.Faults = killPlan(t, [2]int{3, 1})
	m.BuddyEvery = -1
	if _, err := m.SolveJacobi(parallelProblem(m.P())); err == nil ||
		!strings.Contains(err.Error(), "no buddy mirror") {
		t.Fatalf("unrecoverable death: %v", err)
	}
}

// TestBuddyMirrorIsFreeInSimulatedTime: arming the buddy mirror on a
// fault-free run must not move any simulated observable — the mirror
// is host-side bookkeeping, like checkpoints.
func TestBuddyMirrorIsFreeInSimulatedTime(t *testing.T) {
	clean, cm := recoverySolve(t, 2, 0, 0, 0, nil)
	m, err := New(smallCfg(), 2)
	if err != nil {
		t.Fatal(err)
	}
	m.BuddyEvery = 1
	res, err := m.SolveJacobi(parallelProblem(m.P()))
	if err != nil {
		t.Fatal(err)
	}
	assertSameSolve(t, res, clean)
	if res.Cycles != clean.Cycles || m.CommCycles != cm.CommCycles {
		t.Fatalf("buddy mirror moved the clocks: %d/%d vs %d/%d",
			res.Cycles, m.CommCycles, clean.Cycles, cm.CommCycles)
	}
}

// TestRecoverRanksValidation covers the ring-repair edge cases the
// solve path cannot reach.
func TestRecoverRanksValidation(t *testing.T) {
	m, err := New(smallCfg(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := m.RecoverRanks([]int{5}); err == nil {
		t.Error("out-of-range dead rank accepted")
	}
	if _, _, err := m.RecoverRanks([]int{1, 1}); err == nil {
		t.Error("duplicate dead rank accepted")
	}
	if _, _, err := m.RecoverRanks([]int{0, 1}); err == nil {
		t.Error("losing every rank accepted")
	}
}
