package engine

import (
	"fmt"
	"strings"
)

// Degraded-mode recovery: the engine half of surviving permanent node
// loss. A FaultKillForever event marks a rank dead at the dispatch
// barrier; Dispatch reports the dead set through a DeadRankError
// instead of retrying (no retry can resurrect a dead board). The
// client repairs the ring — a hot spare wired into the dead slot, or a
// smaller fabric with the surviving ranks re-partitioned — restores its
// state from its buddy mirror (or a checkpoint), prices the state
// scatter with ChargeScatter and points the same Loop at the repaired
// fabric with Repartition. The resumed trajectory is bit-identical to a
// fault-free run: recovery is mathematically invisible, only the
// clocks grow.

// DeadRankError reports permanently dead ranks detected at a dispatch
// barrier. Ranks are ring ranks of the partition in force when the
// kill fired, in ascending order.
type DeadRankError struct {
	Sweep int
	Ranks []int
}

func (e *DeadRankError) Error() string {
	rs := make([]string, len(e.Ranks))
	for i, r := range e.Ranks {
		rs[i] = fmt.Sprintf("%d", r)
	}
	return fmt.Sprintf("engine: sweep %d: rank(s) %s permanently dead", e.Sweep, strings.Join(rs, ","))
}

// RecoveryStats counts degraded-mode recoveries. It is deliberately a
// separate struct from FaultStats: FaultStats is embedded in the
// fixed-size checkpoint header, so it cannot grow, and recovery
// counters describe the in-process run, not the persisted state.
type RecoveryStats struct {
	// Recoveries counts completed recovery rounds; DeadRanks the ranks
	// lost across them.
	Recoveries int64
	DeadRanks  int64
	// SpareActivations counts dead slots refilled from Machine.Spares;
	// Shrinks counts slots retired by re-partitioning over survivors.
	SpareActivations int64
	Shrinks          int64
	// BuddyRestores / CheckpointRestores count where the resumed state
	// came from.
	BuddyRestores      int64
	CheckpointRestores int64
	// ResweptSweeps is the simulated work re-executed: the distance from
	// each resume boundary back up to the sweep that died.
	ResweptSweeps int64
}

// Add accumulates o into s.
func (s *RecoveryStats) Add(o RecoveryStats) {
	s.Recoveries += o.Recoveries
	s.DeadRanks += o.DeadRanks
	s.SpareActivations += o.SpareActivations
	s.Shrinks += o.Shrinks
	s.BuddyRestores += o.BuddyRestores
	s.CheckpointRestores += o.CheckpointRestores
	s.ResweptSweeps += o.ResweptSweeps
}

func (s RecoveryStats) String() string {
	return fmt.Sprintf("recoveries=%d dead=%d spares=%d shrinks=%d buddy=%d checkpoint=%d resweeps=%d",
		s.Recoveries, s.DeadRanks, s.SpareActivations, s.Shrinks,
		s.BuddyRestores, s.CheckpointRestores, s.ResweptSweeps)
}

// ChargeScatter prices a host-mediated state scatter after recovery:
// every rank with a non-zero word count receives one message from rank
// 0 (the host's fabric attachment point). The transfers run
// concurrently, so the critical path grows by the worst single
// message while CommCycles takes the aggregate. Purely a function of
// the topology and the word counts, so recovery clocks are
// deterministic.
func ChargeScatter(f Fabric, words []int64) int64 {
	wb := int64(f.WordBytes())
	var worst int64
	for r := 0; r < f.P() && r < len(words); r++ {
		if words[r] == 0 {
			continue
		}
		c := f.SendCost(words[r]*wb, f.Hops(0, r))
		f.AddCommCycles(c)
		if c > worst {
			worst = c
		}
	}
	f.AddMachineCycles(worst)
	return worst
}
