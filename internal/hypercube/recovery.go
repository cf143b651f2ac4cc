package hypercube

import (
	"fmt"
	"sort"

	"repro/internal/diag"
	"repro/internal/engine"
	"repro/internal/jacobi"
	"repro/internal/sim"
)

// Degraded-mode recovery: the machine half of surviving permanent node
// loss. The engine detects a dead rank at a dispatch barrier and hands
// this client a DeadRankError; the client repairs the ring — a hot
// spare adopts the dead slot's hypercube address, or, with the spare
// pool empty, the slot is retired and the surviving ranks re-partition
// the grid — restores the iterate from the in-memory buddy mirror (or
// the last checkpoint), and resumes the solve from that sweep
// boundary. Both the restored state and the recovery clocks are pure
// functions of the fault plan, so recovered runs stay bit-identical to
// fault-free runs in grids and residual series at any survivor count.

// AddSpares provisions n cold standby boards for degraded-mode
// recovery. Spares are idle until a permanent kill fires: they cost no
// simulated cycles and join no aggregation before activation.
func (m *Machine) AddSpares(n int) error {
	if n < 0 {
		return diag.Errorf(diag.RuleNegativeCount, "hypercube: spare count %d is negative", n)
	}
	for i := 0; i < n; i++ {
		nd, err := sim.NewNode(m.Cfg)
		if err != nil {
			return err
		}
		m.Spares = append(m.Spares, nd)
	}
	return nil
}

// Liveness is the machine's survivor view.
type Liveness struct {
	// Live is the current ring size (ranks still solving).
	Live int
	// DeadAddrs lists the hypercube addresses of permanently lost
	// boards, in the order they died.
	DeadAddrs []int
	// SparesFree and SparesUsed count the standby pool.
	SparesFree int
	SparesUsed int
}

// Liveness reports the machine's survivor view.
func (m *Machine) Liveness() Liveness {
	return Liveness{
		Live:       len(m.ring),
		DeadAddrs:  append([]int(nil), m.deadAddrs...),
		SparesFree: len(m.Spares),
		SparesUsed: len(m.activated),
	}
}

// RecoverRanks repairs the ring after the given ring ranks died
// permanently: spares (when available) take over the lowest dead slots
// first, keeping the slot's hypercube address; the remaining dead
// slots are deleted, shrinking the ring. It returns how many slots
// were spared and how many shrunk. The caller owns re-partitioning and
// state restoration; this only fixes the rank → board mapping, the
// combine pricing and the observability shards.
func (m *Machine) RecoverRanks(dead []int) (spared, shrunk int, err error) {
	p := len(m.ring)
	seen := make(map[int]bool, len(dead))
	for _, d := range dead {
		if d < 0 || d >= p {
			return 0, 0, fmt.Errorf("hypercube: dead rank %d outside %d live ranks", d, p)
		}
		if seen[d] {
			return 0, 0, fmt.Errorf("hypercube: dead rank %d listed twice", d)
		}
		seen[d] = true
	}
	sorted := append([]int(nil), dead...)
	sort.Ints(sorted)
	var retire []int
	for _, d := range sorted {
		if len(m.Spares) == 0 {
			retire = append(retire, d)
			continue
		}
		sp := m.Spares[0]
		m.Spares = m.Spares[1:]
		sp.TrapCfg = m.Trap
		m.deadAddrs = append(m.deadAddrs, m.ringAddr[d])
		m.ring[d] = sp
		m.activated = append(m.activated, sp)
		spared++
	}
	// Delete retired slots highest-first so lower indices stay valid.
	for i := len(retire) - 1; i >= 0; i-- {
		d := retire[i]
		m.deadAddrs = append(m.deadAddrs, m.ringAddr[d])
		m.ring = append(m.ring[:d], m.ring[d+1:]...)
		m.ringAddr = append(m.ringAddr[:d], m.ringAddr[d+1:]...)
		shrunk++
	}
	if len(m.ring) == 0 {
		return spared, shrunk, fmt.Errorf("hypercube: no surviving ranks")
	}
	m.combineHops = m.Topo.CombineSteps(m.ringAddr)
	m.ArmObs()
	return spared, shrunk, nil
}

// buddyStore is the in-memory buddy mirror: at armed sweep boundaries
// every rank's full local iterate (both planes, ghosts included) is
// mirrored to its ring buddy — modeled host-side as one store, with
// availability gated on the buddy partner (rank+1 mod P) surviving.
// Like checkpoints, mirrors are host-side bookkeeping: they never move
// the simulated clocks, so a clean run with mirroring armed has
// bit-identical cycle counts to one without.
type buddyStore struct {
	valid  bool
	sweep  int
	series []float64
	part   *engine.Partition
	u, v   [][]float64
}

// take mirrors the current sweep-boundary state. Buffers are reused
// across sweeps of one partition generation.
func (b *buddyStore) take(m *Machine, part *engine.Partition, sweep int, series []float64) error {
	if b.part != part {
		b.u = make([][]float64, part.P)
		b.v = make([][]float64, part.P)
		for r := 0; r < part.P; r++ {
			w := part.SlabWords(r)
			b.u[r] = make([]float64, w)
			b.v[r] = make([]float64, w)
		}
		b.part = part
	}
	for r := 0; r < part.P; r++ {
		if err := m.ring[r].ReadWordsInto(jacobi.PlaneU, 0, b.u[r]); err != nil {
			return err
		}
		if err := m.ring[r].ReadWordsInto(jacobi.PlaneV, 0, b.v[r]); err != nil {
			return err
		}
	}
	b.sweep = sweep
	b.series = append(b.series[:0], series...)
	b.valid = true
	return nil
}

// available reports whether the mirror can restore a run that lost the
// given ranks of the given partition: the mirror must be from that
// partition generation, and every dead rank's buddy partner must have
// survived (the partner holds the mirror).
func (b *buddyStore) available(part *engine.Partition, dead []int) bool {
	if !b.valid || b.part != part || part.P < 2 {
		return false
	}
	isDead := make(map[int]bool, len(dead))
	for _, d := range dead {
		isDead[d] = true
	}
	for _, d := range dead {
		if d < 0 || d >= part.P || isDead[(d+1)%part.P] {
			return false
		}
	}
	return true
}

// recover handles a permanent node loss: pick the state source, repair
// the ring, rebuild the partition and code, repartition the loop,
// restore the iterate and price the scatter. It returns the sweep
// boundary to resume from; s.series holds that boundary's residual
// history afterwards.
func (s *jacobiSolve) recover(dre *engine.DeadRankError) (int, error) {
	m := s.m
	oldPart := s.part

	var gu, gv []float64
	var resume int
	var series []float64
	var source string
	switch {
	case s.buddy.available(oldPart, dre.Ranks):
		gu = s.buddy.part.Assemble(s.buddy.u)
		gv = s.buddy.part.Assemble(s.buddy.v)
		resume, series, source = s.buddy.sweep, s.buddy.series, "buddy"
	case m.LastCheckpoint != nil:
		ck := m.LastCheckpoint
		if ck.P != oldPart.P || ck.N != oldPart.N || ck.Nz != oldPart.Nz {
			return 0, fmt.Errorf("hypercube: checkpoint shape P=%d N=%d Nz=%d cannot restore a P=%d N=%d Nz=%d solve",
				ck.P, ck.N, ck.Nz, oldPart.P, oldPart.N, oldPart.Nz)
		}
		ckPart, err := ck.partition()
		if err != nil {
			return 0, err
		}
		if err := ck.compatible(ckPart); err != nil {
			return 0, err
		}
		gu = ckPart.Assemble(ck.U)
		gv = ckPart.Assemble(ck.V)
		resume, series, source = ck.Sweep, ck.Residuals, "checkpoint"
	default:
		return 0, fmt.Errorf("hypercube: rank(s) %v died with no buddy mirror and no checkpoint to restore from", dre.Ranks)
	}

	spared, shrunk, err := m.RecoverRanks(dre.Ranks)
	if err != nil {
		return 0, err
	}
	newPart := oldPart
	if shrunk > 0 {
		if newPart, err = engine.NewPartition(len(m.ring), oldPart.N, oldPart.Nz); err != nil {
			return 0, err
		}
	}
	if err := s.build(newPart); err != nil {
		return 0, err
	}

	// Restore the full local grids everywhere: CompileSweeps reloaded
	// every slab's initial guess, so survivors rewrite their planes from
	// their own (local, free) mirror region while dead slots — and, on a
	// shrink, every displaced slab — receive theirs over the fabric.
	fab := m.Fabric()
	if err := newPart.Scatter(fab, jacobi.PlaneU, gu); err != nil {
		return 0, err
	}
	if err := newPart.Scatter(fab, jacobi.PlaneV, gv); err != nil {
		return 0, err
	}
	engine.ChargeScatter(fab, newPart.RefillWords(dre.Ranks, shrunk > 0, 2))
	s.series = append(s.series[:0], series...)

	// A stale pre-recovery checkpoint can no longer restore the new
	// shape, so synthesize a fresh one at the resume boundary (internal
	// only — not sent to the sink; its counters are the restore base,
	// which rollback never reads).
	if m.CheckpointEvery > 0 || m.LastCheckpoint != nil {
		ck, err := m.snapshot(resume, newPart, s.global, series, s.base, s.pcBase, s.trapBase)
		if err != nil {
			return 0, err
		}
		m.LastCheckpoint = ck
	}

	mode := "shrink"
	switch {
	case spared > 0 && shrunk > 0:
		mode = "spare+shrink"
	case spared > 0:
		mode = "spare"
	}
	s.rec.Recoveries++
	s.rec.DeadRanks += int64(len(dre.Ranks))
	s.rec.SpareActivations += int64(spared)
	s.rec.Shrinks += int64(shrunk)
	switch source {
	case "buddy":
		s.rec.BuddyRestores++
	case "checkpoint":
		s.rec.CheckpointRestores++
	}
	resweep := int64(dre.Sweep - resume) // both boundaries precede the death
	s.rec.ResweptSweeps += resweep
	if o := m.Obs; o != nil {
		o.Inc("engine.recovery.recoveries")
		if spared > 0 {
			o.Add("engine.recovery.spare", int64(spared))
		}
		if shrunk > 0 {
			o.Add("engine.recovery.shrink", int64(shrunk))
		}
		o.Inc("engine.recovery.source." + source)
		o.Observe("engine.recovery.resweeps", resweep)
		s.lp.Event("recovery", mode, map[string]int64{
			"resume_sweep": int64(resume),
			"spared":       int64(spared),
			"shrunk":       int64(shrunk),
		})
	}
	return resume, s.lp.Repartition(newPart)
}
