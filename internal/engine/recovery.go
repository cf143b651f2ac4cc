package engine

import (
	"fmt"
	"strings"

	"repro/internal/sim"
)

// Degraded-mode recovery: surviving permanent node loss. A
// FaultKillForever event marks a rank dead at the dispatch barrier;
// Dispatch reports the dead set through a DeadRankError instead of
// retrying (no retry can resurrect a dead board). The solver keeps a
// Mirror of its state at sweep boundaries and hands it to
// Loop.Recover, which repairs the ring through the fabric — a hot
// spare wired into the dead slot, or a smaller ring with the surviving
// ranks re-partitioned — lets the solver rebuild its code over the
// repaired partition, scatters the mirrored planes back, prices the
// scatter and re-sizes the loop. The resumed trajectory is
// bit-identical to a fault-free run: recovery is mathematically
// invisible, only the clocks grow.

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

// Mirror is a host-side copy of a solve's state at a sweep boundary,
// the state Recover restores. It holds each mirrored memory plane in
// its global N×N×Nz form: every rank's owned planes plus the edge
// ranks' outer ghost planes, the grid's true boundary. So it restores
// onto any partition of the grid, the one a shrink leaves behind
// included. Taking a mirror is host bookkeeping and moves no simulated
// cycles.
type Mirror struct {
	// Sweep is the boundary the mirror holds; Series the solve's
	// residual history up to it.
	Sweep  int
	Series []float64
	// Part is the partition the mirror was taken from, nil until the
	// first Take.
	Part *Partition
	// Planes lists the mirrored memory planes; Grids[i] holds Planes[i]
	// in global form.
	Planes []int
	Grids  [][]float64
}

// NewMirror allocates a mirror of the given memory planes of an
// N×N×Nz grid. The buffers are reused by every Take.
func NewMirror(n, nz int, planes ...int) *Mirror {
	mr := &Mirror{Planes: planes, Grids: make([][]float64, len(planes))}
	for i := range mr.Grids {
		mr.Grids[i] = make([]float64, n*n*nz)
	}
	return mr
}

// Take copies the mirrored planes of every rank of part at boundary
// sweep, with the residual history up to it.
func (mr *Mirror) Take(f Fabric, part *Partition, sweep int, series []float64) error {
	nn, last := part.NN(), part.P-1
	for i, plane := range mr.Planes {
		g := mr.Grids[i]
		if err := part.Gather(f, plane, g); err != nil {
			return err
		}
		if err := f.Node(0).ReadWordsInto(plane, 0, g[:nn]); err != nil {
			return err
		}
		if err := f.Node(last).ReadWordsInto(plane, int64(part.SlabWords(last)-nn), g[(part.Nz-1)*nn:]); err != nil {
			return err
		}
	}
	mr.Part, mr.Sweep = part, sweep
	mr.Series = append(mr.Series[:0], series...)
	return nil
}

// Restore writes every mirrored plane into every slab of part, ghosts
// included. Restoring is host bookkeeping too: a caller that moves the
// planes over the fabric charges the scatter itself.
func (mr *Mirror) Restore(f Fabric, part *Partition) error {
	for i, plane := range mr.Planes {
		if err := part.Scatter(f, plane, mr.Grids[i]); err != nil {
			return err
		}
	}
	return nil
}

// Recover survives the permanent loss of dre's ranks and restores the
// solve's state from mr. It repairs the ring through the fabric, hands
// rebuild the repaired partition — the same one after a hot spare, a
// fresh one over the survivors after a shrink — to recompile and
// reload the slabs, scatters the mirrored planes into every slab,
// charges the scatter (the refilled slots only, or every slab after a
// shrink), and repartitions the loop. source names where mr came from
// ("buddy" or "checkpoint"); resweeps counts the work the resume
// replays. Recovery rounds are bounded by the fault plan's length: each
// consumes at least one fired event, so past it dre is returned as is.
//
// The round is counted in Recovery, in the engine.recovery.* counters
// and as a "recovery" trace event; it emits no Observe sample. The
// lost boards stay in Nodes.
func (lp *Loop) Recover(dre *DeadRankError, mr *Mirror, source string, resweeps int64, rebuild func(*Partition) error) error {
	if plan := lp.cfg.Faults; plan == nil || int(lp.rec.Recoveries) >= len(plan.Events) {
		return dre
	}
	f := lp.cfg.Fabric
	for _, r := range dre.Ranks {
		lp.lost = append(lp.lost, f.Node(r))
	}
	spared, shrunk, err := f.RecoverRanks(dre.Ranks)
	if err != nil {
		return err
	}
	part := lp.cfg.Part
	if shrunk > 0 {
		if part, err = NewPartition(f.P(), part.N, part.Nz); err != nil {
			return err
		}
	}
	if err := rebuild(part); err != nil {
		return err
	}
	// Rebuilding reloaded every slab's initial state, so every rank
	// rewrites its planes from the mirror. A survivor restoring its own
	// memory is a simulation artifact and free; the refilled slots — or,
	// after a shrink, every slab, since every boundary may have moved —
	// receive theirs over the fabric.
	if err := mr.Restore(f, part); err != nil {
		return err
	}
	ChargeScatter(f, part.RefillWords(dre.Ranks, shrunk > 0, len(mr.Planes)))

	rs := &lp.rec
	rs.Recoveries++
	rs.DeadRanks += int64(len(dre.Ranks))
	rs.SpareActivations += int64(spared)
	rs.Shrinks += int64(shrunk)
	if source == "checkpoint" {
		rs.CheckpointRestores++
	} else {
		rs.BuddyRestores++
	}
	rs.ResweptSweeps += resweeps
	if o := lp.cfg.Obs; o != nil {
		mode := "shrink"
		switch {
		case spared > 0 && shrunk > 0:
			mode = "spare+shrink"
		case spared > 0:
			mode = "spare"
		}
		o.Inc("engine.recovery.recoveries")
		if spared > 0 {
			o.Add("engine.recovery.spare", int64(spared))
		}
		if shrunk > 0 {
			o.Add("engine.recovery.shrink", int64(shrunk))
		}
		o.Inc("engine.recovery.source." + source)
		o.Observe("engine.recovery.resweeps", resweeps)
		lp.Event("recovery", mode, map[string]int64{
			"resume_sweep": int64(mr.Sweep),
			"spared":       int64(spared),
			"shrunk":       int64(shrunk),
		})
	}
	return lp.Repartition(part)
}

// Recovery returns the loop's degraded-mode recovery counters.
func (lp *Loop) Recovery() RecoveryStats { return lp.rec }

// Nodes returns every board that has served a rank of this loop: the
// live ring in rank order, then the boards Recover lost, in the order
// they died. Counter totals (FLOPs, plan cache) sum over this set, so
// a dead board's work before it died is reported.
func (lp *Loop) Nodes() []*sim.Node {
	f := lp.cfg.Fabric
	nodes := make([]*sim.Node, 0, f.P()+len(lp.lost))
	for r := 0; r < f.P(); r++ {
		nodes = append(nodes, f.Node(r))
	}
	return append(nodes, lp.lost...)
}
