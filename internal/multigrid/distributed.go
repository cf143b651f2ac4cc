package multigrid

import (
	"errors"
	"fmt"

	"repro/internal/arch"
	"repro/internal/engine"
	"repro/internal/jacobi"
	"repro/internal/microcode"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/sim"
)

// Distributed runs the V-cycle across an engine fabric (the hypercube,
// through Machine.Fabric()): the finest grid is slab-decomposed over
// the ranks exactly like the parallel Jacobi driver — every smoothing
// sweep and the residual evaluation execute on partitioned slabs with
// ghost-plane exchange through the engine loop — while the coarse
// chain, too small to be worth distributing, runs as a standalone
// Solver resident on rank 0's node behind its fine slab. The host
// performs the grid transfers (gather-restrict, prolong-scatter),
// standing in for the memory-reformatting phases of §3, and charges
// the fabric for the slab traffic they imply.
//
// The trajectory is bit-identical to the single-node solver at any
// rank and worker count: slab sweeps with current ghosts reproduce the
// global sweeps exactly, the residual combine is a max of local maxima
// (associative, so bitwise equal to the global max), and the grid
// transfers consume only owned interior planes.
//
// Degraded-mode recovery works at V-cycle granularity. When the fault
// plan carries a permanent kill, the driver mirrors the global fine
// iterate to the host at the top of every cycle (an engine.Mirror,
// free in simulated time like the Jacobi buddy mirror). A
// DeadRankError mid-cycle goes to the loop's Recover, which repairs
// the ring through the fabric (hot spare or shrinking re-partition),
// has build recompile the slabs and the coarse chain over the
// survivors and scatters the mirrored iterate back; the driver then
// replays the interrupted cycle. The fine U is the whole cross-cycle
// state — residual, correction and coarse grids are recomputed inside
// each cycle — so the replayed trajectory is bit-identical to the
// fault-free run.
type Distributed struct {
	Fabric engine.Fabric
	Cfg    arch.Config
	Part   *engine.Partition

	// Pre and Post mirror Solver: smoothing sweeps around the
	// coarse-grid correction, both even.
	Pre, Post int
	Tol       float64
	MaxCycles int

	dc     DistConfig
	slabs  []*Level // per-rank fine-grid slab levels
	coarse *Solver  // coarse chain on rank 0's node; nil when levels=1
	loop   *engine.Loop
	n      int
	u0     []float64 // global fine initial guess (boundary assembly)

	// Host-transfer scratch, allocated once and reused every cycle.
	fineR   []float64
	zeroU   []float64
	op      int // monotone phase counter for the engine loop
	gatherW []int64
}

// DistConfig parameterizes NewDistributed.
type DistConfig struct {
	// Fabric is the machine substrate (hypercube.Machine.Fabric()).
	Fabric engine.Fabric
	// Cfg is the node architecture.
	Cfg arch.Config
	// N is the fine grid edge (2^k+1); Levels the hierarchy depth.
	N, Levels int
	Tol       float64
	MaxCycles int
	// Workers bounds the host worker pool, as in hypercube.Machine.
	Workers int
	// Faults injects a deterministic fault plan into the engine loop.
	// Transient faults retry under Retry; a permanent kill arms the
	// cycle-boundary mirror and the ring-repair recovery path.
	Faults *engine.FaultPlan
	// Retry bounds transient-fault retries (zero fields take defaults).
	Retry engine.RetryPolicy
	// Observe, when non-nil, receives one sample per engine phase.
	Observe func(phase string, sweep int, cycles int64)
	// Obs, when non-nil, routes the engine loop's phase samples into
	// the unified observability layer (see engine.Config.Obs). Node-
	// level streams are armed by the fabric's owner
	// (hypercube.Machine.Obs), not here.
	Obs *obs.Obs
}

// DistResult reports a distributed multigrid solve. Machine clocks
// accumulate on the fabric's owner (hypercube.Machine.MachineCycles /
// CommCycles).
type DistResult struct {
	U              []float64
	VCycles        int
	Residual       float64
	Converged      bool
	ResidualSeries []float64
	// TotalFLOPs sums every board that ran work, boards lost to a
	// recovery included. PlanCache reports the plan store the fabric's
	// boards share (hypercube.Machine builds them over one), coarse
	// chain included.
	TotalFLOPs int64
	PlanCache  sim.PlanCacheStats
	// Faults counts injected faults and the retries they caused;
	// Recovery counts degraded-mode recoveries (dead ranks, spares,
	// shrinks, replayed V-cycles).
	Faults   engine.FaultStats
	Recovery engine.RecoveryStats
}

// NewDistributed partitions the fine grid over the fabric's ranks,
// compiles each rank's slab pipelines, loads the slabs, and parks the
// coarse hierarchy on rank 0's node.
func NewDistributed(dc DistConfig) (*Distributed, error) {
	if dc.Fabric == nil {
		return nil, fmt.Errorf("multigrid: distributed solve needs a fabric")
	}
	if dc.Levels < 1 {
		return nil, fmt.Errorf("multigrid: need at least one level")
	}
	if err := engine.CheckFaultPoints(dc.Faults, dc.Fabric); err != nil {
		return nil, err
	}
	n := dc.N
	gp := jacobi.NewModelProblem(n, dc.Tol, 1)
	d := &Distributed{
		Fabric: dc.Fabric, Cfg: dc.Cfg, dc: dc,
		Pre: 2, Post: 2, Tol: dc.Tol, MaxCycles: dc.MaxCycles,
		n: n, u0: append([]float64(nil), gp.U0...),
		fineR: make([]float64, n*n*n),
	}
	part, err := engine.NewPartition(dc.Fabric.P(), n, n)
	if err != nil {
		return nil, err
	}
	if err := d.build(part); err != nil {
		return nil, err
	}
	d.loop, err = engine.NewLoop(&engine.Config{
		Fabric: dc.Fabric, Part: part, Workers: dc.Workers,
		Faults:  dc.Faults,
		Retry:   dc.Retry,
		Observe: dc.Observe,
		Obs:     dc.Obs,
	})
	if err != nil {
		return nil, err
	}
	return d, nil
}

// build (re)constructs everything that depends on the ring and its
// partition: the per-rank slab levels and their compiled pipelines and
// the coarse chain on rank 0's node. It runs at construction and again
// from the loop's Recover after a ring repair.
func (d *Distributed) build(part *engine.Partition) error {
	dc := d.dc
	n := d.n
	p := part.P
	// The global fine problem, built exactly like the single-node
	// solver's finest level: model problem, ω-damped interior mask.
	gp := jacobi.NewModelProblem(n, dc.Tol, 1)
	gp.H = 1 / float64(n-1)
	d.Part = part
	d.slabs = make([]*Level, p)
	d.gatherW = nil
	for r := 0; r < p; r++ {
		lp, err := part.Local(dc.Cfg, gp, r)
		if err != nil {
			return err
		}
		lv := &Level{P: lp, BinMask: append([]float64(nil), lp.Mask...)}
		for i, mv := range lp.Mask {
			lp.Mask[i] = mv * DefaultOmega
		}
		d.slabs[r] = lv
	}
	// Compile and load every rank's slab pipelines concurrently: each
	// rank touches only its own node and level, and equal slabs share
	// one compile through the pipeline's cache, for the machine
	// description the boards share.
	pl := pipeline.New(dc.Fabric.Node(0).Inv)
	if err := engine.ParallelFor(dc.Workers, p, func(r int) error {
		nd := dc.Fabric.Node(r)
		lv := d.slabs[r]
		if err := buildLevel(pl, lv, dc.Tol); err != nil {
			return fmt.Errorf("multigrid: rank %d slab: %w", r, err)
		}
		if err := lv.P.Load(nd); err != nil {
			return err
		}
		return nd.WriteWords(jacobi.PlaneMask, lv.P.VarBase+int64(lv.P.Cells()), lv.BinMask)
	}); err != nil {
		return err
	}
	d.coarse = nil
	if dc.Levels > 1 {
		nc := (n-1)/2 + 1
		if (nc-1)*2+1 != n {
			return fmt.Errorf("multigrid: fine grid %d is not 2·(coarse−1)+1; need n = 2^k+1", n)
		}
		// The coarse chain lives behind rank 0's slab storage, strided
		// by the same rule the single-node hierarchy uses.
		base := int64(2*d.slabs[0].P.Cells() + 2*n*n)
		coarse, err := NewOnNode(dc.Cfg, dc.Fabric.Node(0), nc, dc.Levels-1, dc.Tol, dc.MaxCycles, base)
		if err != nil {
			return err
		}
		d.coarse = coarse
		d.zeroU = make([]float64, d.coarse.Levels[0].P.Cells())
	}
	return nil
}

// barrier folds a loop phase's two-channel result into one error: a
// retry budget exhausted by transient faults is fatal here, because
// the distributed V-cycle recovers at cycle granularity, not at sweep
// checkpoints.
func barrier(bud *engine.BudgetError, err error) error {
	if err != nil {
		return err
	}
	if bud != nil {
		return bud
	}
	return nil
}

// smooth runs `sweeps` damped-Jacobi sweeps on the slabs, exchanging
// the freshly written plane's ghosts after every sweep so the next
// sweep reads the current global iterate. Even sweep counts end in
// plane U, like the single-node smoother.
func (d *Distributed) smooth(sweeps int) error {
	for i := 0; i < sweeps; i++ {
		fwd := i%2 == 0
		plane := jacobi.PlaneV
		if !fwd {
			plane = jacobi.PlaneU
		}
		if err := barrier(d.loop.Dispatch(d.op, func(r int) *microcode.Instr {
			if fwd {
				return d.slabs[r].fwd
			}
			return d.slabs[r].bwd
		}, plane)); err != nil {
			return err
		}
		if err := barrier(d.loop.Exchange(d.op, plane)); err != nil {
			return err
		}
		d.op++
	}
	return nil
}

// residual evaluates the fine residual on every slab (reduce registers
// hold the local maxima afterwards).
func (d *Distributed) residual() error {
	err := barrier(d.loop.Dispatch(d.op, func(r int) *microcode.Instr {
		return d.slabs[r].residual
	}, -1))
	d.op++
	return err
}

// vcycle runs one distributed V-cycle: slab smoothing and residual on
// the fabric, grid transfers through the host, the coarse chain on
// rank 0's node.
func (d *Distributed) vcycle() error {
	if d.coarse == nil {
		// Single level: the finest grid is also the coarsest.
		return d.smooth(d.Pre + d.Post)
	}
	if err := d.smooth(d.Pre); err != nil {
		return err
	}
	if err := d.residual(); err != nil {
		return err
	}
	// Gather the owned residual planes to the host (boundary planes
	// stay zero; restriction never reads them), restrict, and seed the
	// coarse solve on rank 0.
	f := d.Fabric
	pt := d.Part
	if d.gatherW == nil {
		d.gatherW = make([]int64, f.P())
	}
	if err := pt.Gather(f, PlaneR, d.fineR); err != nil {
		return err
	}
	for r := range d.gatherW {
		d.gatherW[r] = int64(pt.OwnedWords(r))
	}
	engine.ChargeScatter(f, d.gatherW)
	coarse := d.coarse.Levels[0]
	cf := Restrict(d.fineR, d.n, coarse.P.N)
	nd0 := f.Node(0)
	if err := nd0.WriteWords(jacobi.PlaneF, coarse.P.VarBase, cf); err != nil {
		return err
	}
	if err := nd0.WriteWords(jacobi.PlaneU, coarse.P.VarBase, d.zeroU); err != nil {
		return err
	}
	// The coarse chain runs on rank 0 while the other ranks wait: its
	// node time is machine critical path.
	before := nd0.Stats.Cycles
	if err := d.coarse.VCycle(); err != nil {
		return err
	}
	f.AddMachineCycles(nd0.Stats.Cycles - before)
	cu, err := nd0.ReadWords(jacobi.PlaneU, coarse.P.VarBase, coarse.P.Cells())
	if err != nil {
		return err
	}
	// Prolong the correction and scatter each rank's whole slab —
	// ghost planes included, so the correction leaves them globally
	// consistent and no exchange is needed before post-smoothing.
	if err := pt.Scatter(f, PlaneE, Prolong(cu, coarse.P.N, d.n)); err != nil {
		return err
	}
	for r := range d.gatherW {
		d.gatherW[r] = int64(pt.SlabWords(r))
	}
	engine.ChargeScatter(f, d.gatherW)
	if err := barrier(d.loop.Dispatch(d.op, func(r int) *microcode.Instr {
		return d.slabs[r].correct
	}, -1)); err != nil {
		return err
	}
	d.op++
	if err := barrier(d.loop.Dispatch(d.op, func(r int) *microcode.Instr {
		return d.slabs[r].copyVU
	}, -1)); err != nil {
		return err
	}
	d.op++
	return d.smooth(d.Post)
}

// cycle runs one V-cycle plus the convergence residual and combine,
// returning the global residual maximum.
func (d *Distributed) cycle() (float64, error) {
	if err := d.vcycle(); err != nil {
		return 0, err
	}
	if err := d.residual(); err != nil {
		return 0, err
	}
	worst, bud := d.loop.CombineResidual(d.op)
	d.op++
	if bud != nil {
		return 0, bud
	}
	return worst, nil
}

// Run iterates distributed V-cycles until the combined fine-grid
// residual drops below tolerance, then assembles the global field from
// the owned slab planes. Permanent node deaths are recovered at cycle
// granularity when the fault plan carries any: the loop restores the
// cycle-boundary mirror and the interrupted cycle replays. The result
// is bit-identical to the fault-free run, only the clocks grow.
func (d *Distributed) Run() (*DistResult, error) {
	res := &DistResult{}
	var mirror *engine.Mirror
	if d.dc.Faults.HasPermanent() {
		mirror = engine.NewMirror(d.n, d.n, jacobi.PlaneU)
	}
	for res.VCycles < d.MaxCycles {
		if mirror != nil {
			if err := mirror.Take(d.Fabric, d.Part, res.VCycles, nil); err != nil {
				return nil, err
			}
		}
		opStart := d.op
		worst, err := d.cycle()
		if err != nil {
			var dre *engine.DeadRankError
			if !errors.As(err, &dre) || mirror == nil {
				return nil, err
			}
			// The fault plan's firing counters persist across the
			// rebuild, so the replay does not re-suffer the death.
			if err := d.loop.Recover(dre, mirror, "buddy", 1, d.build); err != nil {
				return nil, err
			}
			d.op = opStart // replay the interrupted cycle on the repaired ring
			continue
		}
		res.VCycles++
		res.Residual = worst
		res.ResidualSeries = append(res.ResidualSeries, worst)
		if worst < d.Tol {
			res.Converged = true
			break
		}
	}
	nn := d.n * d.n
	res.U = make([]float64, d.n*nn)
	copy(res.U[:nn], d.u0[:nn])
	copy(res.U[(d.n-1)*nn:], d.u0[(d.n-1)*nn:])
	if err := d.Part.Gather(d.Fabric, jacobi.PlaneU, res.U); err != nil {
		return nil, err
	}
	for _, nd := range d.loop.Nodes() {
		res.TotalFLOPs += nd.Stats.FLOPs
	}
	res.PlanCache = d.Fabric.Node(0).Store().Stats()
	res.Faults = d.loop.Stats()
	res.Recovery = d.loop.Recovery()
	if !res.Converged {
		return res, fmt.Errorf("multigrid: no convergence in %d V-cycles (residual %g)", res.VCycles, res.Residual)
	}
	return res, nil
}
