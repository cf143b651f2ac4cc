package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/arch"
	"repro/internal/engine"
	"repro/internal/hypercube"
	"repro/internal/jacobi"
	"repro/internal/multigrid"
	"repro/internal/sim"
	"repro/internal/topo"
)

// Workload shapes. The Jacobi grid is the production-scale solve: 64
// ranks of two 16×16 planes each, run to convergence.
const (
	jacobiRanks = 64
	jacobiN     = 16
	jacobiNz    = 2*jacobiRanks + 2
	jacobiTol   = 1e-4
	jacobiMax   = 400

	// Resilient run: checkpoint stride, transient kills drawn over
	// sweeps [0, transientSweeps), and the permanent kill drawn over
	// [killLo, killLo+killSpan) so it never collides with a transient
	// event.
	checkpointEvery = 10
	transientSweeps = 80
	transientFaults = 4
	killLo          = 90
	killSpan        = 60

	mgRanks  = 8
	mgN      = 33
	mgLevels = 3
	mgTol    = 1e-6
	mgMax    = 100
)

// workload is one named benchmark input family; README.md records why
// each was chosen.
type workload struct {
	name string
	// prepare draws the seeded inputs and computes the reference answer;
	// it runs once, outside every timed region.
	prepare func(seed int64) (instance, error)
}

// instance is one workload's inputs plus its reference answer.
type instance interface {
	// solve runs one solve from machine construction to answer. The
	// probe times it from outside through the public hooks.
	solve(workers int, pr *probe) (*outcome, error)
	// check compares an outcome with the reference bit for bit.
	check(o *outcome) error
	// replay re-runs the solver's setup calls stage by stage (trace runs).
	replay(workers int) (*replayTimes, error)
	// note is printed with every record (seed use, shape).
	note() string
}

// outcome is what one solve produced, plus the counters the traced run
// reports. The machine is kept so the live heap is measured with it
// still reachable.
type outcome struct {
	u         []float64
	iters     int
	series    []float64
	converged bool

	simCycles, commCycles int64

	machine  *hypercube.Machine
	nodes    []*sim.Node
	plans    sim.PlanCacheStats
	faults   engine.FaultStats
	recovery engine.RecoveryStats
}

var workloads = []workload{
	{"jacobi-converge", func(seed int64) (instance, error) { return newJacobiCase(seed, false), nil }},
	{"jacobi-resilient", func(seed int64) (instance, error) { return newJacobiCase(seed, true), nil }},
	{"multigrid-vcycle", newMultigridCase},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// config is the node architecture every workload runs on.
func config() arch.Config { return arch.Default() }

// jacobiProblem draws the global Poisson instance: F uniform in
// [0.75, 1.25) from the seed, zero initial guess, Dirichlet boundary.
// The spread keeps every seed on the same convergence trajectory length
// while making each seed's field and residual series distinct.
func jacobiProblem(seed int64) *jacobi.Problem {
	g := jacobi.NewModelProblem(jacobiN, jacobiTol, jacobiMax)
	g.Nz = jacobiNz
	g.F = make([]float64, g.Cells())
	g.U0 = make([]float64, g.Cells())
	g.Mask = make([]float64, g.Cells())
	rng := rand.New(rand.NewSource(seed))
	for k := 0; k < g.Nz; k++ {
		for j := 0; j < g.N; j++ {
			for i := 0; i < g.N; i++ {
				c := g.Index(i, j, k)
				g.F[c] = 0.75 + 0.5*rng.Float64()
				if i > 0 && i < g.N-1 && j > 0 && j < g.N-1 && k > 0 && k < g.Nz-1 {
					g.Mask[c] = 1
				}
			}
		}
	}
	return g
}

// faultPlan draws the resilient workload's faults: the repository's
// seeded transient-kill plan plus one permanent kill whose rank and
// sweep come from an independent stream of the same seed. A plan
// carries firing counters, so every solve gets a fresh one.
func faultPlan(seed int64) (*hypercube.FaultPlan, error) {
	base := hypercube.RandomFaultPlan(seed, transientSweeps, jacobiRanks, transientFaults)
	rng := rand.New(rand.NewSource(seed ^ 0x5eed_f00d))
	kill := hypercube.FaultEvent{
		Sweep: killLo + rng.Intn(killSpan),
		Phase: hypercube.PhaseDispatch,
		Rank:  rng.Intn(jacobiRanks),
		Kind:  hypercube.FaultKillForever,
	}
	return hypercube.NewFaultPlan(append(append([]hypercube.FaultEvent(nil), base.Events...), kill)...)
}

// resilientTrap arms detection with the retry policy and a watchdog
// that never fires on this solve; armed detection pins dispatch to the
// interpreter.
var resilientTrap = arch.TrapConfig{Policy: arch.TrapRetry, WatchdogCycles: 1 << 30}

type jacobiCase struct {
	seed      int64
	resilient bool
	global    *jacobi.Problem
	ref       *jacobi.RefResult
}

func newJacobiCase(seed int64, resilient bool) *jacobiCase {
	g := jacobiProblem(seed)
	return &jacobiCase{seed: seed, resilient: resilient, global: g, ref: g.Reference()}
}

func (c *jacobiCase) note() string {
	s := fmt.Sprintf("seed %d draws F; %d ranks, grid %d×%d×%d, tol %g",
		c.seed, jacobiRanks, jacobiN, jacobiN, jacobiNz, jacobiTol)
	if c.resilient {
		if plan, err := faultPlan(c.seed); err == nil {
			for _, ev := range plan.Events {
				if ev.Kind == hypercube.FaultKillForever {
					s += fmt.Sprintf("; %d seeded transient kills, permanent kill of rank %d at sweep %d",
						len(plan.Events)-1, ev.Rank, ev.Sweep)
				}
			}
			s += fmt.Sprintf("; 1 spare, checkpoint every %d sweeps", checkpointEvery)
		}
	}
	return s
}

func (c *jacobiCase) solve(workers int, pr *probe) (*outcome, error) {
	var plan *hypercube.FaultPlan
	var ckBuf bytes.Buffer
	if c.resilient {
		var err error
		if plan, err = faultPlan(c.seed); err != nil {
			return nil, err
		}
	}
	tp, err := topo.New("hypercube", jacobiRanks)
	if err != nil {
		return nil, err
	}

	pr.start()
	m, err := hypercube.NewWithTopology(config(), tp)
	if err != nil {
		return nil, err
	}
	m.Workers = workers
	m.Observe = pr.observe
	if c.resilient {
		if err := m.AddSpares(1); err != nil {
			return nil, err
		}
		m.Faults = plan
		m.Trap = resilientTrap
		m.CheckpointEvery = checkpointEvery
		m.CheckpointSink = func(ck *hypercube.Checkpoint) error {
			t := time.Now()
			ckBuf.Reset()
			n, err := ck.WriteTo(&ckBuf)
			pr.sink(time.Since(t), n)
			return err
		}
	}
	nodes := append(append([]*sim.Node(nil), m.Nodes...), m.Spares...)
	pr.constructed()
	res, err := m.SolveJacobi(c.global)
	pr.stop()
	if err != nil {
		return nil, err
	}
	return &outcome{
		u: res.U, iters: res.Iterations, series: res.ResidualSeries, converged: res.Converged,
		simCycles: m.MachineCycles, commCycles: m.CommCycles,
		machine: m, nodes: nodes, plans: res.PlanCache, faults: res.Faults, recovery: res.Recovery,
	}, nil
}

func (c *jacobiCase) check(o *outcome) error {
	return sameSolution(o, c.ref.U, c.ref.Iters, c.ref.Residuals, c.ref.Converged)
}

func (c *jacobiCase) replay(workers int) (*replayTimes, error) {
	part, err := engine.NewPartition(jacobiRanks, c.global.N, c.global.Nz)
	if err != nil {
		return nil, err
	}
	trap := arch.TrapConfig{}
	if c.resilient {
		trap = resilientTrap
	}
	return replaySetup(config(), part, c.global, workers, trap)
}

type multigridCase struct {
	seed int64
	ref  *multigrid.Result
}

// newMultigridCase computes the single-node V-cycle reference. The
// distributed solver's DistConfig takes no right-hand side, so the seed
// selects nothing here; the record says so.
func newMultigridCase(seed int64) (instance, error) {
	s, err := multigrid.New(config(), mgN, mgLevels, mgTol, mgMax)
	if err != nil {
		return nil, err
	}
	ref, err := s.Run()
	if err != nil {
		return nil, fmt.Errorf("multigrid reference: %w", err)
	}
	return &multigridCase{seed: seed, ref: ref}, nil
}

func (c *multigridCase) note() string {
	return fmt.Sprintf("seed %d unused: DistConfig takes no right-hand side; %d ranks, N=%d, %d levels, tol %g",
		c.seed, mgRanks, mgN, mgLevels, mgTol)
}

func (c *multigridCase) solve(workers int, pr *probe) (*outcome, error) {
	tp, err := topo.New("hypercube", mgRanks)
	if err != nil {
		return nil, err
	}
	pr.start()
	m, err := hypercube.NewWithTopology(config(), tp)
	if err != nil {
		return nil, err
	}
	m.Workers = workers
	pr.constructed()
	d, err := multigrid.NewDistributed(multigrid.DistConfig{
		Fabric: m.Fabric(), Cfg: config(),
		N: mgN, Levels: mgLevels, Tol: mgTol, MaxCycles: mgMax,
		Workers: workers, Observe: pr.observe,
	})
	if err != nil {
		return nil, err
	}
	pr.built()
	res, err := d.Run()
	pr.stop()
	if err != nil {
		return nil, err
	}
	return &outcome{
		u: res.U, iters: res.VCycles, series: res.ResidualSeries, converged: res.Converged,
		simCycles: m.MachineCycles, commCycles: m.CommCycles,
		machine: m, nodes: append([]*sim.Node(nil), m.Nodes...), plans: res.PlanCache,
		faults: res.Faults, recovery: res.Recovery,
	}, nil
}

func (c *multigridCase) check(o *outcome) error {
	return sameSolution(o, c.ref.U, c.ref.VCycles, c.ref.ResidualSeries, c.ref.Converged)
}

// replay covers the fine-slab smoother documents (the Jacobi diagram
// per rank) and the host side of one V-cycle; the auxiliary residual,
// correction and copy documents and the coarse chain have no public
// per-stage entry point, so their build time is the multigrid layer's
// own (multigrid.build_s).
func (c *multigridCase) replay(workers int) (*replayTimes, error) {
	part, err := engine.NewPartition(mgRanks, mgN, mgN)
	if err != nil {
		return nil, err
	}
	rt, err := replaySetup(config(), part, jacobi.NewModelProblem(mgN, mgTol, 1), workers, arch.TrapConfig{})
	if err != nil {
		return nil, err
	}
	if rt.hostPerCycle, err = replayHost(config(), part); err != nil {
		return nil, err
	}
	return rt, nil
}

// sameSolution is the bit-for-bit output check: grid, iteration count,
// residual series and convergence flag.
func sameSolution(o *outcome, u []float64, iters int, series []float64, converged bool) error {
	switch {
	case !o.converged || !converged:
		return fmt.Errorf("not converged (solve %v, reference %v)", o.converged, converged)
	case o.iters != iters:
		return fmt.Errorf("%d iterations, reference %d", o.iters, iters)
	case !sameBits(o.series, series):
		return fmt.Errorf("residual series differs from the reference")
	case !sameBits(o.u, u):
		return fmt.Errorf("grid differs from the reference")
	}
	return nil
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}
