package hypercube

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/diag"
	"repro/internal/engine"
)

// Degraded-mode recovery: the machine half of surviving permanent node
// loss. The engine detects a dead rank at a dispatch barrier and its
// Loop.Recover repairs the ring through the machine — a hot spare
// adopts the dead slot's hypercube address, or, with the spare pool
// empty, the slot is retired and the surviving ranks re-partition the
// grid. The Jacobi solve supplies the policy: the in-memory buddy
// mirror (or the last checkpoint) it restores from and the sweep
// boundary it resumes at. Both the restored state and the recovery
// clocks are pure functions of the fault plan, so recovered runs stay
// bit-identical to fault-free runs in grids and residual series at any
// survivor count.

// AddSpares provisions n cold standby boards for degraded-mode
// recovery, built over the machine's plan store so an activated spare
// replays the plans its predecessor compiled. Spares are idle until a
// permanent kill fires: they cost no simulated cycles and join no
// aggregation before activation.
func (m *Machine) AddSpares(n int) error {
	if n < 0 {
		return diag.Errorf(diag.RuleNegativeCount, "hypercube: spare count %d is negative", n)
	}
	for i := 0; i < n; i++ {
		m.Spares = append(m.Spares, m.store().NewNode())
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
// were spared and how many shrunk. engine.Loop.Recover owns
// re-partitioning and state restoration; this only fixes the rank →
// board mapping, the combine pricing and the observability shards.
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

// buddyHolds reports whether the buddy mirror can restore a solve that
// lost the given ranks: the mirror must be from the current partition
// generation, and every dead rank's buddy partner (rank+1 mod P), which
// holds its mirror, must have survived.
func (s *jacobiSolve) buddyHolds(dead []int) bool {
	part := s.part
	if s.buddy == nil || s.buddy.Part != part || part.P < 2 {
		return false
	}
	for _, d := range dead {
		if d < 0 || d >= part.P || slices.Contains(dead, (d+1)%part.P) {
			return false
		}
	}
	return true
}

// recover handles a permanent node loss: it picks the state source —
// the buddy mirror, else LastCheckpoint — and has the loop repair the
// ring, rebuild the code over the repaired partition and restore the
// iterate. LastCheckpoint then moves to the resume boundary, over a
// copy of the restored state. It returns the sweep boundary to resume
// from; s.series holds that boundary's residual history afterwards.
func (s *jacobiSolve) recover(dre *engine.DeadRankError) (int, error) {
	m := s.m
	mr, source := s.buddy, "buddy"
	if !s.buddyHolds(dre.Ranks) {
		ck := m.LastCheckpoint
		if ck == nil {
			return 0, fmt.Errorf("hypercube: rank(s) %v died with no buddy mirror and no checkpoint to restore from", dre.Ranks)
		}
		if err := m.ValidateCheckpoint(ck, s.part.N, s.part.Nz); err != nil {
			return 0, err
		}
		mr, source = ck.mirror(), "checkpoint"
	}
	// Both boundaries precede the death.
	if err := s.lp.Recover(dre, mr, source, int64(dre.Sweep-mr.Sweep), s.build); err != nil {
		return 0, err
	}
	s.series = append(s.series[:0], mr.Series...)
	// The resume-boundary checkpoint is internal only — not sent to the
	// sink; its counters are the restore base, which rollback never
	// reads. It copies the grids: the buddy mirror reuses its buffers.
	if m.CheckpointEvery > 0 || m.LastCheckpoint != nil {
		m.LastCheckpoint = s.snapshot(&engine.Mirror{
			Sweep:  mr.Sweep,
			Series: slices.Clone(mr.Series),
			Grids:  [][]float64{slices.Clone(mr.Grids[0]), slices.Clone(mr.Grids[1])},
		}, s.base)
	}
	return mr.Sweep, nil
}
