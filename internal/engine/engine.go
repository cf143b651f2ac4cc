// Package engine is the distributed solver runtime extracted from the
// hypercube Jacobi driver: the reusable parallel skeleton — slab
// partitioning and the slab ↔ global layout, per-rank code generation,
// and the phases of a sweep (dispatch, residual combine, halo exchange)
// with fault injection, bounded retry and rank-ordered stat merges —
// separated from any particular numerical scheme. Solvers (the
// hypercube Jacobi solve, the distributed multigrid) write their own
// loops over one Loop's phase calls; checkpoints, rollback and ring
// repair belong to the solver, and Repartition carries the loop across
// a repair.
//
// The engine addresses ranks on a ring; the Fabric interface maps ring
// ranks onto real machine topology (the hypercube adapter routes them
// through the Gray code so ring neighbours are one hop apart) and owns
// the cost model and the machine-wide clocks. All per-rank work runs
// through a bounded worker pool; every accumulator update happens
// either under a single goroutine per rank or host-side after a
// barrier, merged in rank order, so results are bit-identical at every
// worker count.
//
// The loop overlaps halo exchange with interior computation: each rank
// gathers its outgoing ghost faces into pooled buffers inside the
// dispatch barrier (right after its own sweep, while other ranks are
// still computing), and the exchange phase is then a single scatter
// barrier in which every rank writes only its own ghost planes. Faulted
// runs take the same path: every injected fault is resolved on the
// coordinating goroutine, in rank order, before the barrier it
// affects, so barrier bodies only execute instructions and move words
// and the fault plan is never touched concurrently.
package engine

import (
	"fmt"

	"repro/internal/jacobi"
	"repro/internal/microcode"
	"repro/internal/obs"
	"repro/internal/sim"
)

// Fabric is the machine substrate the engine runs on: rank-addressed
// node access, the message cost model, and the machine-wide clocks.
// Ranks are ring ranks; the implementation maps them to physical
// topology through an internal/topo embedding (the hypercube machine
// uses the Gray code; mesh and torus machines a snake walk).
type Fabric interface {
	// P returns the rank count.
	P() int
	// Node returns the simulated node behind a ring rank.
	Node(rank int) *sim.Node
	// WordBytes is the payload size of one word.
	WordBytes() int
	// SendCost prices one message of `bytes` over `hops` hops.
	SendCost(bytes int64, hops int) int64
	// Hops returns the path length between two ring ranks.
	//
	// Invariant: both ranks must be live (0 ≤ r < P). The engine
	// checks the partition against P when a loop starts and only asks
	// about ring pairs (r, r+1) below P afterwards — so, unlike the
	// machine-level Hops APIs, this one carries no error return.
	// Implementations must panic on a violation rather than return a
	// garbage distance.
	Hops(from, to int) int
	// Topology names the physical fabric ("hypercube", "mesh2d",
	// "torus2d") for observability tags and reports.
	Topology() string
	// CombineHops returns the per-round critical-path hop counts of the
	// residual-combine tree over the live ranks: the loop charges one
	// word-sized message over CombineHops()[d] hops for round d. Empty
	// when P is 1.
	CombineHops() []int
	// Corrupt bit-flips count words on a rank (fault injection). The
	// exchange barrier calls it concurrently, each rank on its own node.
	Corrupt(rank, plane int, addr int64, count int) error
	// AddMachineCycles charges the machine critical path; AddCommCycles
	// the aggregate router load.
	AddMachineCycles(cycles int64)
	AddCommCycles(cycles int64)
}

// Config parameterizes a Loop.
type Config struct {
	Fabric  Fabric
	Part    *Partition
	Workers int

	// Faults, when non-nil, arms deterministic fault injection; Retry
	// bounds the recovery (zero fields take DefaultRetryPolicy).
	Faults *FaultPlan
	Retry  RetryPolicy

	// Observe, when non-nil, receives one sample per completed phase
	// with the simulated cycles it added to the critical path. Called
	// host-side after each barrier; nil costs nothing.
	Observe func(phase string, sweep int, cycles int64)

	// Obs, when non-nil, routes the same per-phase samples into the
	// unified observability layer: an "engine.phase.<name>" counter and
	// ".cycles" histogram per phase, plus one span per phase on tracer
	// shard 0 whose timeline is the loop's accumulated simulated
	// critical path. Everything recorded is derived from simulated
	// cycles after a barrier, so metrics, spans and results are
	// bit-identical at every worker count.
	Obs *obs.Obs
}

// Loop is the phase-structured sweep loop: Dispatch runs one
// instruction on every rank, CombineResidual reduces the convergence
// signal, Exchange swaps ghost faces between ring neighbours. All
// fault/retry/stat accounting lives here; clients sequence the phases.
// One Loop serves a whole solve: after a ring repair, Repartition
// re-sizes it for the new partition and keeps the fault counters and
// the trace timeline running.
type Loop struct {
	cfg   Config
	retry RetryPolicy

	fst   FaultStats // live counters
	sweep []int64    // per-rank dispatch cycles
	idle  []bool     // per-rank: dead or out of budget, so no execution
	cost  []int64    // per-pair exchange cost
	link  []link     // per-pair exchange outcome

	// halo holds each rank's outgoing faces: halo[2r] the down face
	// (last owned plane), halo[2r+1] the up face (first owned plane).
	// Allocated once per loop and reused every sweep; gathered names the
	// plane the last Dispatch filled it from, or -1.
	halo     [][]float64
	gathered int

	// simTS is the loop's observability timeline: the simulated
	// critical-path cycles accumulated by observed phases, used as span
	// timestamps so traces replay the machine's time, not the host's.
	simTS int64
}

// link is a ring pair's exchange outcome, resolved on the host before
// the scatter barrier. Corruption is an XOR on the delivered words, so
// only the last delivery decides what the ghost planes hold.
type link uint8

const (
	linkLost    link = iota // no attempt delivered: both ghosts stay stale
	linkClean               // the last delivery arrived intact
	linkCorrupt             // the last delivery's down face arrived bit-flipped
)

// NewLoop builds a loop over the configured fabric and partition.
func NewLoop(cfg *Config) (*Loop, error) {
	if cfg.Fabric == nil || cfg.Part == nil {
		return nil, fmt.Errorf("engine: loop needs a fabric and a partition")
	}
	lp := &Loop{cfg: *cfg, retry: cfg.Retry.WithDefaults()}
	if err := lp.Repartition(cfg.Part); err != nil {
		return nil, err
	}
	return lp, nil
}

// Repartition points the loop at a new partition of its fabric — the
// same one after a hot spare filled a dead slot, a smaller one after a
// shrink — and re-sizes the per-rank state and halo buffers for it.
// The fault counters and the trace timeline carry on, so a recovered
// solve reports one continuous run. Each call starts a new loop
// generation, counted per fabric.
func (lp *Loop) Repartition(part *Partition) error {
	p := lp.cfg.Fabric.P()
	if part.P != p {
		return fmt.Errorf("engine: partition over %d ranks on a %d-rank fabric", part.P, p)
	}
	lp.cfg.Part = part
	lp.sweep = make([]int64, p)
	lp.idle = make([]bool, p)
	lp.cost = make([]int64, p)
	lp.link = make([]link, p)
	lp.halo, lp.gathered = nil, -1
	if p > 1 {
		lp.halo = make([][]float64, 2*p)
		for i := range lp.halo {
			lp.halo[i] = make([]float64, part.NN())
		}
	}
	if o := lp.cfg.Obs; o != nil {
		o.Inc("engine.topology." + lp.cfg.Fabric.Topology())
	}
	return nil
}

// Stats returns the loop's live fault counters.
func (lp *Loop) Stats() FaultStats { return lp.fst }

// HostPhase marks a host-side phase at a sweep boundary — a checkpoint
// or a buddy mirror — on the loop's timeline. Such phases are free in
// simulated time, so the sample carries zero cycles.
func (lp *Loop) HostPhase(phase string, sweep int) { lp.observe(phase, sweep, 0) }

// Event records an instantaneous engine event on tracer shard 0 at the
// loop's current point on the simulated timeline. Nil Obs costs
// nothing.
func (lp *Loop) Event(name, cause string, args map[string]int64) {
	lp.cfg.Obs.Event(0, "engine", name, lp.simTS, cause, args)
}

// observe reports a completed phase to the configured observer and the
// unified observability layer. Called host-side after the phase's
// barrier, so span order on shard 0 is the loop's deterministic phase
// order.
func (lp *Loop) observe(phase string, sweep int, cycles int64) {
	if o := lp.cfg.Obs; o != nil {
		o.Inc("engine.phase." + phase)
		o.Observe("engine.phase."+phase+".cycles", cycles)
		o.Span(0, "engine", phase, lp.simTS, cycles, map[string]int64{"sweep": int64(sweep)})
		lp.simTS += cycles
	}
	if lp.cfg.Observe != nil {
		lp.cfg.Observe(phase, sweep, cycles)
	}
}

// resolveDispatch draws every rank's dispatch faults on the host, in
// rank order: lp.sweep[r] starts at the rank's injected stall and
// backoff cycles, and lp.idle[r] marks a rank that died or ran out of
// retry budget and so does not execute. It returns the lowest rank's
// budget error and the dead ranks, ascending.
func (lp *Loop) resolveDispatch(sweepNo int) (be *BudgetError, dead []int) {
	plan := lp.cfg.Faults
	for r := range lp.sweep {
		lp.sweep[r], lp.idle[r] = 0, false
		for attempt := 0; ; attempt++ {
			ev := plan.trigger(sweepNo, PhaseDispatch, r)
			if ev == nil {
				break
			}
			lp.fst.Injected++
			if ev.Kind == FaultStall {
				lp.fst.Stalls++
				lp.fst.StallCycles += ev.Stall
				lp.sweep[r] += ev.Stall
				break
			}
			lp.fst.Kills++
			if ev.Kind == FaultKillForever {
				// Permanent death: no retry can help. The rank is charged
				// only the work done before the board died.
				lp.idle[r] = true
				dead = append(dead, r)
				break
			}
			if attempt+1 >= lp.retry.MaxAttempts {
				lp.fst.Exhausted++
				lp.idle[r] = true
				if be == nil {
					be = &BudgetError{Sweep: sweepNo, Phase: PhaseDispatch, Rank: r, Attempts: attempt + 1}
				}
				break
			}
			lp.fst.Retries++
			b := lp.retry.backoff(attempt)
			lp.fst.BackoffCycles += b
			lp.sweep[r] += b
		}
	}
	return be, dead
}

// Dispatch executes instr(r) on every rank across the worker pool and
// charges the critical path with the slowest rank. Faults are resolved
// on the host before the barrier (see resolveDispatch); inside it each
// rank only executes on its own node and records its own cycles, which
// merge after the barrier in rank order, keeping the clocks
// bit-identical at every worker count.
//
// gatherPlane >= 0 names the plane whose ghost faces the following
// Exchange will swap: each rank copies its outgoing faces into the
// pooled halo buffers right after its own sweep, still inside the
// dispatch barrier, so the exchange phase needs only a single scatter
// barrier. Pass -1 for dispatches with no exchange to feed (residual,
// correction, copies).
func (lp *Loop) Dispatch(sweepNo int, instr func(rank int) *microcode.Instr, gatherPlane int) (*BudgetError, error) {
	cfg := &lp.cfg
	f := cfg.Fabric
	p := f.P()
	be, dead := lp.resolveDispatch(sweepNo)
	lp.gathered = -1
	gather := gatherPlane >= 0 && lp.halo != nil
	if err := ParallelFor(cfg.Workers, p, func(r int) error {
		if lp.idle[r] {
			return nil
		}
		nd := f.Node(r)
		before := nd.Stats.Cycles
		if err := nd.Exec(instr(r)); err != nil {
			return fmt.Errorf("engine: node %d sweep %d: %w", r, sweepNo, err)
		}
		lp.sweep[r] += nd.Stats.Cycles - before
		if gather {
			return lp.gather(r, gatherPlane)
		}
		return nil
	}); err != nil {
		return nil, err
	}
	if be == nil && dead == nil {
		lp.gathered = gatherPlane
	}
	var maxNode int64
	for r := 0; r < p; r++ {
		if lp.sweep[r] > maxNode {
			maxNode = lp.sweep[r]
		}
	}
	// The sweep costs the machine its time even when a budget error
	// aborts the iteration: the lost work still ran.
	f.AddMachineCycles(maxNode)
	lp.observe("dispatch", sweepNo, maxNode)
	if dead != nil {
		if o := cfg.Obs; o != nil {
			for _, r := range dead {
				o.Inc("engine.recovery.dead_ranks")
				o.Event(0, "engine", "dead-rank", lp.simTS, "kill-forever",
					map[string]int64{"sweep": int64(sweepNo), "rank": int64(r)})
			}
		}
		return be, &DeadRankError{Sweep: sweepNo, Ranks: dead}
	}
	return be, nil
}

// gather copies rank r's outgoing ghost faces into the pooled halo
// buffers. Only r touches its own node and its own buffer slots, so
// the copy is safe inside the dispatch barrier.
func (lp *Loop) gather(r, plane int) error {
	pt := lp.cfg.Part
	nd := lp.cfg.Fabric.Node(r)
	if r+1 < pt.P { // down face: last owned plane
		last, _ := pt.faces(r)
		if err := nd.ReadWordsInto(plane, last, lp.halo[2*r]); err != nil {
			return err
		}
	}
	if r > 0 { // up face: first owned plane
		if err := nd.ReadWordsInto(plane, int64(pt.NN()), lp.halo[2*r+1]); err != nil {
			return err
		}
	}
	return nil
}

// CombineResidual reads the per-rank reduce registers, combines them
// host-side (max is associative, so the max of local maxima is the
// global max bit for bit) and charges the combine tree the fabric's
// topology prescribes: one word-sized message per round, over that
// round's critical-path hop count (single-hop recursive doubling on the
// hypercube; real lattice distances on a mesh or torus). Lost or
// corrupted combine rounds re-send with backoff; the wasted round still
// crossed the wire, so it is charged too. A non-nil BudgetError means
// the combine's retry budget exhausted and the sweep must roll back or
// surface.
func (lp *Loop) CombineResidual(sweepNo int) (float64, *BudgetError) {
	cfg := &lp.cfg
	f := cfg.Fabric
	p := f.P()
	worst := 0.0
	for r := 0; r < p; r++ {
		if v := f.Node(r).RedReg[jacobi.ResidualFU]; v > worst {
			worst = v
		}
	}
	if p == 1 {
		return worst, nil
	}
	steps := f.CombineHops()
	combine := int64(0)
	var mergeBE *BudgetError
	for d := 0; d < len(steps) && mergeBE == nil; d++ {
		step := f.SendCost(int64(f.WordBytes()), steps[d])
		if cfg.Faults != nil {
			for attempt := 0; ; attempt++ {
				ev := cfg.Faults.trigger(sweepNo, PhaseMerge, d)
				if ev == nil {
					break
				}
				lp.fst.Injected++
				if ev.Kind == FaultStall {
					lp.fst.Stalls++
					lp.fst.StallCycles += ev.Stall
					combine += ev.Stall
					break
				}
				if ev.Kind == FaultCorrupt {
					lp.fst.Corruptions++
				} else {
					lp.fst.Kills++
				}
				if attempt+1 >= lp.retry.MaxAttempts {
					lp.fst.Exhausted++
					mergeBE = &BudgetError{Sweep: sweepNo, Phase: PhaseMerge, Rank: d, Attempts: attempt + 1}
					break
				}
				lp.fst.Retries++
				b := lp.retry.backoff(attempt)
				lp.fst.BackoffCycles += b
				combine += step + b
			}
		}
		if mergeBE == nil {
			combine += step
		}
	}
	f.AddCommCycles(combine)
	f.AddMachineCycles(combine)
	lp.observe("combine", sweepNo, combine)
	return worst, mergeBE
}

// resolveExchange draws every ring pair's exchange faults on the host,
// in rank order, and records each pair's router cost and outcome. A
// delivery costs two face messages over the pair's real distance;
// stalls, backoff and every re-sent delivery add to it. Kills drop the
// messages before any words move; a corruption delivers a bit-flipped
// down face that the modeled link CRC flags for re-send. It returns
// the lowest pair's budget error.
func (lp *Loop) resolveExchange(sweepNo int) *BudgetError {
	f := lp.cfg.Fabric
	face := int64(lp.cfg.Part.NN()) * int64(f.WordBytes())
	var be *BudgetError
	for r := 0; r+1 < f.P(); r++ {
		msg := 2 * f.SendCost(face, f.Hops(r, r+1))
		cost, state := int64(0), linkLost
		for attempt := 0; ; attempt++ {
			ev := lp.cfg.Faults.trigger(sweepNo, PhaseExchange, r)
			if ev == nil {
				cost, state = cost+msg, linkClean
				break
			}
			lp.fst.Injected++
			if ev.Kind == FaultStall {
				// The stalled transfer still completes.
				lp.fst.Stalls++
				lp.fst.StallCycles += ev.Stall
				cost, state = cost+ev.Stall+msg, linkClean
				break
			}
			if ev.Kind == FaultCorrupt {
				lp.fst.Corruptions++
				cost, state = cost+msg, linkCorrupt
			} else {
				lp.fst.Kills++
			}
			if attempt+1 >= lp.retry.MaxAttempts {
				lp.fst.Exhausted++
				if be == nil {
					be = &BudgetError{Sweep: sweepNo, Phase: PhaseExchange, Rank: r, Attempts: attempt + 1}
				}
				break
			}
			lp.fst.Retries++
			b := lp.retry.backoff(attempt)
			lp.fst.BackoffCycles += b
			cost += b
		}
		lp.cost[r], lp.link[r] = cost, state
	}
	return be
}

// Exchange swaps ghost faces on `plane` between all ring neighbours:
// rank r's last owned plane becomes (r+1)'s low ghost and (r+1)'s
// first owned plane r's high ghost. The outgoing faces were gathered
// during the preceding Dispatch, which must have named this plane;
// faults are resolved on the host (see resolveExchange), so the
// exchange is a single barrier in which each rank writes only its own
// ghost planes. All pairs exchange concurrently: the machine's
// critical path grows by one clean pair's traffic plus the worst
// pair's extra, while CommCycles keeps the aggregate router load,
// merged in rank order.
func (lp *Loop) Exchange(sweepNo, plane int) (*BudgetError, error) {
	if plane != lp.gathered {
		return nil, fmt.Errorf("engine: sweep %d: exchange of plane %d, but the preceding dispatch gathered no faces from it", sweepNo, plane)
	}
	cfg := &lp.cfg
	f := cfg.Fabric
	pt := cfg.Part
	p := f.P()
	if p == 1 {
		lp.observe("exchange", sweepNo, 0)
		return nil, nil
	}
	be := lp.resolveExchange(sweepNo)
	nn := pt.NN()
	if err := ParallelFor(cfg.Workers, p, func(r int) error {
		nd := f.Node(r)
		if r > 0 && lp.link[r-1] != linkLost { // low ghost: left neighbour's down face
			if err := nd.WriteWords(plane, 0, lp.halo[2*(r-1)]); err != nil {
				return err
			}
			if lp.link[r-1] == linkCorrupt {
				if err := f.Corrupt(r, plane, 0, nn); err != nil {
					return err
				}
			}
		}
		if r+1 < p && lp.link[r] != linkLost { // high ghost: right neighbour's up face
			_, high := pt.faces(r)
			if err := nd.WriteWords(plane, high, lp.halo[2*(r+1)+1]); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return nil, err
	}
	pairClean := 2 * f.SendCost(int64(nn)*int64(f.WordBytes()), 1)
	var worstExtra int64
	for r := 0; r+1 < p; r++ {
		f.AddCommCycles(lp.cost[r])
		worstExtra = max(worstExtra, lp.cost[r]-pairClean)
	}
	added := pairClean + worstExtra
	f.AddMachineCycles(added)
	lp.observe("exchange", sweepNo, added)
	return be, nil
}
