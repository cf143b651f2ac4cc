package hypercube

import (
	"errors"
	"fmt"

	"repro/internal/engine"
	"repro/internal/jacobi"
	"repro/internal/microcode"
	"repro/internal/sim"
)

// jacobiSolve is the state of one SolveJacobi call. Recovery swaps the
// partition-dependent part mid-run — it rebuilds part/fwd/bwd over the
// repaired ring and repartitions the loop — and the sweep loop reads
// them through this struct, so the resumed sweeps see the new shape.
type jacobiSolve struct {
	m      *Machine
	global *jacobi.Problem

	lp       *engine.Loop
	part     *engine.Partition
	fwd, bwd []*microcode.Instr
	// buddy is the in-memory buddy mirror of both iterate planes; nil
	// when the machine's BuddyEvery policy leaves it off.
	buddy *engine.Mirror

	// series is the residual history so far; own counts the checkpoints
	// and restores the solve made (the loop counts the faults and the
	// recoveries).
	series []float64
	own    engine.FaultStats

	// Restore bases (from m.Restore), added to the live counters.
	base     engine.FaultStats
	pcBase   sim.PlanCacheStats
	trapBase sim.TrapStats
}

// build partitions the problem, compiles both sweep pipelines per rank
// and loads the slabs onto the ring. Loading rewrites PlaneU with the
// initial guess, so a rebuild mid-run must be followed by an iterate
// restore.
func (s *jacobiSolve) build(part *engine.Partition) error {
	m := s.m
	locals := make([]*jacobi.Problem, part.P)
	for r := 0; r < part.P; r++ {
		var err error
		if locals[r], err = part.Local(m.Cfg, s.global, r); err != nil {
			return err
		}
	}
	fwd, bwd, err := engine.CompileSweeps(m.Workers, locals, m.Fabric().Node)
	if err != nil {
		return err
	}
	s.part, s.fwd, s.bwd = part, fwd, bwd
	return nil
}

// buddyEvery resolves the machine's BuddyEvery policy for this solve.
// The mirror stands for each rank's owned planes copied to its ring
// buddy (rank+1 mod P); it is host bookkeeping, like checkpoints, and
// never moves the simulated clocks.
func (s *jacobiSolve) buddyEvery() int {
	m := s.m
	switch {
	case m.BuddyEvery > 0:
		return m.BuddyEvery
	case m.BuddyEvery < 0:
		return 0
	case m.Faults.HasPermanent():
		return 1
	}
	return 0
}

// faults returns the solve's fault counters so far, without the restore
// base: the loop's, plus the solve's own checkpoints and restores.
func (s *jacobiSolve) faults() engine.FaultStats {
	f := s.lp.Stats()
	f.Add(s.own)
	return f
}

// run drives the sweep loop from sweep `it` until the residual
// converges, StopAfter sweeps complete, or MaxIter runs out. Each sweep
// takes a checkpoint at boundaries divisible by CheckpointEvery (except
// skipAt, a resumed boundary that holds no new progress), mirrors to
// the buddy store, then dispatches, combines the residual and exchanges
// ghost faces.
//
// A retry budget that exhausts in any of the three phases rolls the
// solve back to LastCheckpoint, at most MaxRestores times per ring
// configuration; simulated time is not rolled back — the lost work
// cost real cycles. A permanent node loss repairs the ring and resumes
// from the boundary recover restored, with the same loop: fault
// counters and the trace timeline continue, and the loop bounds the
// recovery rounds by the plan length.
//
// It returns the sweeps completed, the last combined residual and
// whether it converged.
func (s *jacobiSolve) run(it, skipAt int) (sweeps int, residual float64, converged bool, err error) {
	m, lp, tol := s.m, s.lp, s.global.Tol
	maxRestores := m.Retry.WithDefaults().MaxRestores
	buddyEvery := s.buddyEvery()
	if buddyEvery > 0 {
		s.buddy = engine.NewMirror(s.global.N, s.global.Nz, jacobi.PlaneU, jacobi.PlaneV)
	}
	restores := 0
	sweeps = it

	// One instruction-lookup closure for the whole run: allocating it
	// per sweep shows up once the dispatch itself stops allocating
	// (plan cache + specialized kernels make the steady state
	// alloc-free).
	instr := func(r int) *microcode.Instr {
		if it%2 == 1 {
			return s.bwd[r]
		}
		return s.fwd[r]
	}

	for ; it < s.global.MaxIter; it++ {
		// Checkpoints and buddy mirrors are host-side and free in
		// simulated time; the zero-cycle phase marks the boundary on the
		// timeline.
		if m.CheckpointEvery > 0 && it%m.CheckpointEvery == 0 && it != skipAt {
			s.own.Checkpoints++
			if err := s.take(it); err != nil {
				return 0, 0, false, err
			}
			lp.HostPhase("checkpoint", it)
		}
		if buddyEvery > 0 && it%buddyEvery == 0 {
			if err := s.buddy.Take(m.Fabric(), s.part, it, s.series); err != nil {
				return 0, 0, false, err
			}
			lp.HostPhase("buddy", it)
		}

		plane := jacobi.PlaneV
		if it%2 == 1 {
			plane = jacobi.PlaneU
		}
		be, err := lp.Dispatch(it, instr, plane)
		if err != nil {
			var dre *engine.DeadRankError
			if !errors.As(err, &dre) {
				return 0, 0, false, err
			}
			at, err := s.recover(dre)
			if err != nil {
				return 0, 0, false, fmt.Errorf("hypercube: recovering from %v: %w", dre, err)
			}
			it, skipAt, restores = at-1, at, 0
			continue
		}
		if be == nil {
			sweeps = it + 1
			var worst float64
			if worst, be = lp.CombineResidual(it); be == nil {
				residual = worst
				s.series = append(s.series, worst)
				if m.StopAfter > 0 && sweeps >= m.StopAfter || m.StopAfter == 0 && worst < tol {
					return sweeps, residual, worst < tol, nil
				}
				if be, err = lp.Exchange(it, plane); err != nil {
					return 0, 0, false, err
				}
			}
		}
		if be != nil {
			ck := m.LastCheckpoint
			if ck == nil || restores >= maxRestores {
				return 0, 0, false, be
			}
			if err := m.restore(ck, s.part); err != nil {
				return 0, 0, false, err
			}
			restores++
			s.own.Restores++
			s.series = append(s.series[:0], ck.Residuals...)
			it, skipAt = ck.Sweep-1, ck.Sweep
		}
	}
	return sweeps, residual, false, nil
}

// take snapshots the solve at a sweep boundary into LastCheckpoint and
// the machine's sink. The snapshot owns fresh grids: the sink may keep
// it.
func (s *jacobiSolve) take(sweep int) error {
	m := s.m
	mr := engine.NewMirror(s.global.N, s.global.Nz, jacobi.PlaneU, jacobi.PlaneV)
	if err := mr.Take(m.Fabric(), s.part, sweep, s.series); err != nil {
		return err
	}
	faults := s.base
	faults.Add(s.faults())
	ck := s.snapshot(mr, faults)
	m.LastCheckpoint = ck
	if m.CheckpointSink != nil {
		if err := m.CheckpointSink(ck); err != nil {
			return fmt.Errorf("hypercube: checkpoint sink at sweep %d: %w", sweep, err)
		}
	}
	return nil
}

// snapshot builds a checkpoint over mr's state — its boundary, residual
// history and u and v grids, which the checkpoint takes over — with the
// machine clocks, the given fault counters and the plan, trap and
// fault-plan counters so far.
func (s *jacobiSolve) snapshot(mr *engine.Mirror, faults engine.FaultStats) *Checkpoint {
	m := s.m
	ck := &Checkpoint{
		Sweep: mr.Sweep, Topology: m.Topo.Name(),
		P: s.part.P, N: s.global.N, Nz: s.global.Nz,
		Residuals:     mr.Series,
		MachineCycles: m.MachineCycles,
		CommCycles:    m.CommCycles,
		Faults:        faults,
		FaultFired:    m.Faults.FiredSnapshot(),
		PlanCache:     s.pcBase,
		Traps:         s.trapBase,
		U:             mr.Grids[0],
		V:             mr.Grids[1],
	}
	ck.PlanCache.Add(m.store().Stats())
	for _, nd := range m.participants() {
		ck.Traps.Add(nd.TrapCounters)
	}
	return ck
}
