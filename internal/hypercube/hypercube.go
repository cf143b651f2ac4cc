// Package hypercube models the multi-node NSC: simulated nodes
// connected by hyperspace routers (§1, §2). The interconnect geometry
// lives in internal/topo — the paper's machine is the hypercube fabric
// (e-cube routes over a Gray-code ring), but the same Machine runs over
// the mesh and torus fabrics of related lattice computers; the cost
// model is per-hop latency plus bandwidth-limited transfer, from the
// arch configuration, with the hop counts and combine pricing supplied
// by the topology.
//
// The package also provides the multi-node point-Jacobi driver used by
// the scaling experiment (P2): 1-D domain decomposition along k with
// ghost-plane exchange between ring neighbours (one hop on every
// pristine embedding) and a residual combine over the topology's tree.
// Partitioning, per-rank codegen and the sweep phases — dispatch, halo
// exchange, convergence reduction, fault injection and retry — live in
// internal/engine; SolveJacobi adapts the machine to the engine's
// Fabric interface and runs its own sweep loop over the phases, with
// checkpoints, rollback and degraded-mode recovery (solve.go).
package hypercube

import (
	"fmt"
	"math"
	"math/bits"
	"strconv"
	"strings"

	"repro/internal/arch"
	"repro/internal/diag"
	"repro/internal/engine"
	"repro/internal/jacobi"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/topo"
)

// Machine is an interconnected ensemble of simulated NSC nodes — a
// hypercube by default, or any fabric from internal/topo.
type Machine struct {
	Cfg arch.Config
	// Dim is ⌈log₂P⌉ — the hypercube dimension when the fabric is the
	// hypercube, and still the residual-combine round count otherwise.
	Dim int
	// Topo is the interconnect the machine is built over; it fixes the
	// rank embedding, hop metric and combine pricing.
	Topo  topo.Topology
	Nodes []*sim.Node

	// CommCycles accumulates router time; MachineCycles accumulates the
	// critical-path time (max node compute per step + communication).
	CommCycles    int64
	MachineCycles int64

	// StopAfter, when positive, runs SolveJacobi for exactly that many
	// sweeps regardless of the residual — for performance measurements
	// where convergence is not the point.
	StopAfter int

	// Workers bounds the host-side goroutine pool that dispatches
	// per-node work in SolveJacobi: 0 or 1 runs sequentially, larger
	// values run up to that many node sweeps concurrently, and -1 uses
	// GOMAXPROCS. Simulated results are bit-identical at every setting:
	// nodes share only the machine's plan store, whose plans are
	// read-only and whose counters do not depend on scheduling, and all
	// cycle/FLOP accounting is merged in rank order after each barrier.
	Workers int

	// Faults, when non-nil, injects the plan's deterministic faults
	// into SolveJacobi. Nil (the default) keeps the solve loop on the
	// exact fault-free path: no extra simulated cycles, no counters.
	Faults *engine.FaultPlan
	// Retry bounds fault recovery; zero fields take the engine default.
	Retry engine.RetryPolicy
	// CheckpointEvery, when positive, snapshots the solve at every
	// sweep boundary divisible by it (sweep 0 included, so a restore
	// point always exists once the solve starts).
	CheckpointEvery int
	// CheckpointSink, when non-nil, receives every snapshot as it is
	// taken — e.g. SaveCheckpointFile for crash-consistent persistence.
	CheckpointSink func(*Checkpoint) error
	// LastCheckpoint is the most recent snapshot; retry-budget
	// exhaustion rolls the solve back to it.
	LastCheckpoint *Checkpoint
	// Restore, when non-nil, makes the next SolveJacobi resume from
	// this snapshot (typically loaded from disk into a fresh machine)
	// instead of the problem's initial guess.
	Restore *Checkpoint
	// FaultCounters accumulates fault/recovery counters across
	// completed solves on this machine.
	FaultCounters engine.FaultStats

	// Trap is the node-level exception policy, applied to every node at
	// the start of each solve. The zero value (policy off) keeps the
	// exact seed behaviour.
	Trap arch.TrapConfig

	// Obs, when non-nil, arms the unified observability layer on every
	// solve: the engine loop's phase spans and counters land on tracer
	// shard 0 and each node's dispatch/trap/ECC stream lands on shard
	// rank+1 (ring rank order, so a Perfetto track per rank). Nil keeps
	// every instrumented path on its zero-cost branch.
	Obs *obs.Obs

	// Observe, when non-nil, receives one sample per completed engine
	// phase (see engine.Config.Observe). The callback runs on the
	// engine's coordinating goroutine, never concurrently.
	Observe func(phase string, sweep int, cycles int64)

	// Spares holds cold standby boards (see AddSpares). Degraded-mode
	// recovery wires one into a permanently dead rank's slot — the spare
	// adopts the slot's hypercube address — before falling back to a
	// shrinking re-partition when the pool is empty.
	Spares []*sim.Node
	// BuddyEvery controls the in-memory buddy mirror that backs
	// degraded-mode recovery: 0 (the default) arms it every sweep
	// exactly when the fault plan contains a permanent kill, a positive
	// value arms it at that sweep stride unconditionally, and a negative
	// value disables it (recovery then depends on LastCheckpoint).
	// Mirrors are host-side, like checkpoints: they never move the
	// simulated clocks.
	BuddyEvery int
	// RecoveryCounters accumulates degraded-mode recovery stats across
	// completed solves on this machine.
	RecoveryCounters engine.RecoveryStats

	// combineHops is the per-round residual-combine pricing from the
	// topology, recomputed whenever the live ring changes.
	combineHops []int

	// ring[r] is the live node serving ring rank r and ringAddr[r] its
	// physical address — Topo.Addr(r) at construction, so neighbours
	// are one hop apart. Recovery edits these in place: a spare takes
	// over the dead slot (same address), a shrink deletes the slot, so
	// survivors may then sit more than one hop from their new ring
	// neighbours (the engine's exchange accounting absorbs that).
	ring     []*sim.Node
	ringAddr []int
	// activated lists spares wired in by recovery (their FLOP and
	// trap counters join the per-solve aggregations); deadAddrs the
	// hypercube addresses of the boards lost.
	activated []*sim.Node
	deadAddrs []int
}

// New builds a hypercube of 2^dim nodes.
func New(cfg arch.Config, dim int) (*Machine, error) {
	if dim < 0 || dim > 10 {
		return nil, fmt.Errorf("hypercube: dimension %d out of range", dim)
	}
	t, err := topo.NewHypercube(dim)
	if err != nil {
		return nil, err
	}
	return NewWithTopology(cfg, t)
}

// NewWithTopology builds a machine of t.P() nodes over an arbitrary
// fabric. The topology fixes which physical node serves each ring rank
// and the combine-tree pricing; the solver data movement is identical
// across fabrics, so results are bit for bit the same and only the
// simulated comm clocks differ.
func NewWithTopology(cfg arch.Config, t topo.Topology) (*Machine, error) {
	if t == nil {
		return nil, fmt.Errorf("hypercube: nil topology")
	}
	p := t.P()
	if p < 1 || p > 1<<10 {
		return nil, fmt.Errorf("hypercube: %s node count %d out of range", t.Name(), p)
	}
	st, err := sim.NewStore(cfg)
	if err != nil {
		return nil, err
	}
	m := &Machine{Cfg: cfg, Dim: ringDim(p), Topo: t}
	for i := 0; i < p; i++ {
		m.Nodes = append(m.Nodes, st.NewNode())
	}
	m.ring = make([]*sim.Node, p)
	m.ringAddr = make([]int, p)
	for r := 0; r < p; r++ {
		a := t.Addr(r)
		if a < 0 || a >= p {
			return nil, fmt.Errorf("hypercube: %s embeds rank %d at address %d outside %d nodes",
				t.Name(), r, a, p)
		}
		m.ring[r] = m.Nodes[a]
		m.ringAddr[r] = a
	}
	m.combineHops = t.CombineSteps(m.ringAddr)
	return m, nil
}

// store returns the machine's one plan store: every board and spare
// is built over it.
func (m *Machine) store() *sim.Store { return m.Nodes[0].Store() }

// P returns the live rank count: the constructed node count until a
// permanent node loss shrinks the ring.
func (m *Machine) P() int { return len(m.ring) }

// checkNode validates a physical hypercube address.
func (m *Machine) checkNode(what string, r int) error {
	if r < 0 || r >= len(m.Nodes) {
		return fmt.Errorf("hypercube: %s node %d outside %d nodes", what, r, len(m.Nodes))
	}
	return nil
}

// Hops returns the fabric's shortest-path length between two nodes
// (physical addresses), rejecting out-of-range ranks.
func (m *Machine) Hops(from, to int) (int, error) {
	if err := m.checkNode("hops from", from); err != nil {
		return 0, err
	}
	if err := m.checkNode("hops to", to); err != nil {
		return 0, err
	}
	return m.hopsAddr(from, to), nil
}

// hopsAddr is Hops for physical addresses already validated — the
// machine validates every live address at construction and on every
// recovery, so a topology error here is a bug, not an input error.
func (m *Machine) hopsAddr(from, to int) int {
	h, err := m.Topo.Hops(from, to)
	if err != nil {
		panic(fmt.Sprintf("hypercube: validated address failed topology metric: %v", err))
	}
	return h
}

// Route returns the fabric's deterministic minimal path from one node
// to another (e-cube on the hypercube, dimension-order on the
// lattices). Out-of-range ranks are rejected with an error.
func (m *Machine) Route(from, to int) ([]int, error) {
	if from < 0 || from >= len(m.Nodes) || to < 0 || to >= len(m.Nodes) {
		return nil, fmt.Errorf("hypercube: route %d->%d outside %d nodes", from, to, len(m.Nodes))
	}
	return m.Topo.Route(from, to)
}

// SendCost models one message: per-hop router latency plus
// bandwidth-limited payload time.
func (m *Machine) SendCost(bytes int64, hops int) int64 {
	if hops == 0 {
		return 0
	}
	bw := int64(m.Cfg.RouterBytesPerCycle)
	return int64(hops*m.Cfg.RouterHopCycles) + (bytes+bw-1)/bw
}

// CopyWords moves count words from one node's plane to another node's
// plane through the router, charging the communication cost. Node
// ranks and plane indices are validated; errors are returned, never
// panics.
func (m *Machine) CopyWords(fromNode, fromPlane int, fromAddr int64,
	toNode, toPlane int, toAddr int64, count int) error {
	if err := m.checkNode("copy source", fromNode); err != nil {
		return err
	}
	if err := m.checkNode("copy destination", toNode); err != nil {
		return err
	}
	data, err := m.Nodes[fromNode].ReadWords(fromPlane, fromAddr, count)
	if err != nil {
		return err
	}
	if err := m.Nodes[toNode].WriteWords(toPlane, toAddr, data); err != nil {
		return err
	}
	m.CommCycles += m.SendCost(int64(count)*int64(m.Cfg.WordBytes), m.hopsAddr(fromNode, toNode))
	return nil
}

// fabric adapts the Machine to engine.Fabric: engine ring ranks map to
// live boards through the machine's ring table — the topology's
// embedding at construction, so ring neighbours are one hop apart, and
// whatever recovery left behind after a permanent node loss — and the
// clocks land on the machine's counters.
type fabric struct{ m *Machine }

func (f fabric) P() int               { return len(f.m.ring) }
func (f fabric) Topology() string     { return f.m.Topo.Name() }
func (f fabric) CombineHops() []int   { return f.m.combineHops }
func (f fabric) Node(r int) *sim.Node { return f.m.ring[r] }
func (f fabric) WordBytes() int       { return f.m.Cfg.WordBytes }
func (f fabric) SendCost(bytes int64, h int) int64 {
	return f.m.SendCost(bytes, h)
}

// Hops implements engine.Fabric over live ring ranks. The engine
// validates the partition against P when a loop starts and only asks
// about live ring pairs, so every rank reaching here is live; per the
// Fabric contract a violation is a caller bug and panics rather than
// silently pricing a message to a node that does not exist.
func (f fabric) Hops(from, to int) int {
	p := len(f.m.ring)
	if from < 0 || from >= p || to < 0 || to >= p {
		panic(fmt.Sprintf("hypercube: fabric hops %d->%d outside %d live ranks", from, to, p))
	}
	return f.m.hopsAddr(f.m.ringAddr[from], f.m.ringAddr[to])
}
func (f fabric) Corrupt(r, plane int, addr int64, count int) error {
	return f.m.corruptNode(f.m.ring[r], plane, addr, count)
}
func (f fabric) AddMachineCycles(c int64) { f.m.MachineCycles += c }
func (f fabric) AddCommCycles(c int64)    { f.m.CommCycles += c }
func (f fabric) RecoverRanks(dead []int) (spared, shrunk int, err error) {
	return f.m.RecoverRanks(dead)
}

// ringDim returns the recursive-doubling round count for p ranks:
// ⌈log₂p⌉, which equals the hypercube dimension while the ring is
// full.
func ringDim(p int) int {
	if p <= 1 {
		return 0
	}
	return bits.Len(uint(p - 1))
}

// Fabric returns the engine's view of this machine: ring-rank node
// access through the Gray code plus the router cost model. Engine
// clients (SolveJacobi, the distributed multigrid) run on it.
func (m *Machine) Fabric() engine.Fabric { return fabric{m} }

// ArmObs points every node's observability hook at the machine's Obs
// (or detaches them when Obs is nil). Shard 0 is the engine's phase
// track, so ring rank r records on shard r+1 — one Perfetto track per
// rank, in ring order.
func (m *Machine) ArmObs() {
	for r, nd := range m.ring {
		nd.Obs = m.Obs
		nd.ObsID = r + 1
	}
}

// JacobiResult reports a multi-node solve.
type JacobiResult struct {
	U          []float64 // assembled global field
	Iterations int
	Converged  bool
	Residual   float64
	// ResidualSeries holds the combined max-residual after every
	// iteration, in order — the convergence history, and the signal the
	// parallel-equivalence tests compare bit for bit.
	ResidualSeries []float64
	// Cycles is the machine critical path: per-iteration max node time
	// plus exchange and combine communication (including retry backoff
	// and stall time when faults were injected).
	Cycles int64
	// TotalFLOPs across all nodes.
	TotalFLOPs int64
	GFLOPS     float64
	// PlanCache reports the machine's plan store: every board replays
	// the store's plans, so a uniform solve compiles its two sweep
	// instructions exactly once however many boards and iterations run.
	// A run restored from a checkpoint carries the snapshot's counters
	// forward.
	PlanCache sim.PlanCacheStats
	// Faults counts injected faults and the recovery work they caused;
	// all-zero on fault-free runs.
	Faults engine.FaultStats
	// Traps aggregates the nodes' exception counters in rank order
	// (plus any counters carried in from a restored checkpoint), so
	// parallel runs report identical totals.
	Traps sim.TrapStats
	// Recovery counts degraded-mode recoveries: permanent node losses
	// survived by hot spares or a shrinking re-partition. All-zero
	// unless a kill-forever fault fired.
	Recovery engine.RecoveryStats
}

// SolveJacobi runs the paper's example problem on the hypercube with a
// 1-D decomposition along k. The global grid is N×N×Nz; the Nz−2
// interior planes must divide evenly by the node count. Each node
// programs its slab through the same visual-environment pipelines as
// the single-node solver (ghost planes enter as masked-off boundary);
// the solve then runs the sweep → combine → exchange loop over the
// engine's phases (see jacobiSolve.run).
//
// When a FaultPlan is armed, faulted operations retry under the
// machine's Retry policy; a retry budget that exhausts rolls the solve
// back to LastCheckpoint (when one exists and MaxRestores allows)
// instead of failing. A permanent kill (FaultKillForever) instead
// triggers degraded-mode recovery: the dead slot is refilled from the
// spare pool or retired by a shrinking re-partition, the iterate is
// restored from the buddy mirror (or LastCheckpoint), and the solve
// resumes. Recovered runs produce bit-identical grids and residual
// histories to fault-free runs; only the cycle counts grow.
func (m *Machine) SolveJacobi(global *jacobi.Problem) (*JacobiResult, error) {
	if m.StopAfter < 0 {
		return nil, diag.Errorf(diag.RuleNegativeCount, "hypercube: sweep count %d is negative", m.StopAfter)
	}
	if m.CheckpointEvery < 0 {
		return nil, diag.Errorf(diag.RuleNegativeCount, "hypercube: checkpoint stride %d is negative", m.CheckpointEvery)
	}
	if m.Trap.WatchdogCycles < 0 {
		return nil, diag.Errorf(diag.RuleNegativeCount, "hypercube: watchdog budget %d is negative", m.Trap.WatchdogCycles)
	}
	if err := engine.CheckFaultPoints(m.Faults, m.Fabric()); err != nil {
		return nil, err
	}
	p := m.P()
	for _, nd := range m.participants() {
		nd.TrapCfg = m.Trap
	}
	m.ArmObs()
	inner := global.Nz - 2
	if inner <= 0 || inner%p != 0 {
		return nil, fmt.Errorf("hypercube: %d interior planes do not divide across %d nodes", inner, p)
	}
	nn := global.N * global.N
	part, err := engine.NewPartition(p, global.N, global.Nz)
	if err != nil {
		return nil, err
	}
	s := &jacobiSolve{m: m, global: global}
	if err := s.build(part); err != nil {
		return nil, err
	}
	startIt, skipAt := 0, -1
	if ck := m.Restore; ck != nil {
		if err := m.restore(ck, part); err != nil {
			return nil, err
		}
		startIt, skipAt = ck.Sweep, ck.Sweep
		s.series = append(s.series, ck.Residuals...)
		m.MachineCycles, m.CommCycles = ck.MachineCycles, ck.CommCycles
		m.Faults.SetFired(ck.FaultFired)
		s.base, s.pcBase, s.trapBase = ck.Faults, ck.PlanCache, ck.Traps
		m.LastCheckpoint = ck
	}
	s.lp, err = engine.NewLoop(&engine.Config{
		Fabric: m.Fabric(), Part: part, Workers: m.Workers,
		Faults: m.Faults, Retry: m.Retry,
		Obs: m.Obs, Observe: m.Observe,
	})
	if err != nil {
		return nil, err
	}
	res := &JacobiResult{U: make([]float64, len(global.U0))}
	if res.Iterations, res.Residual, res.Converged, err = s.run(startIt, skipAt); err != nil {
		return nil, err
	}
	res.ResidualSeries = s.series

	// Assemble the global field from the owned planes (recovery may have
	// re-partitioned); the global boundary planes keep their initial
	// values.
	finalPlane := jacobi.PlaneU
	if res.Iterations%2 == 1 {
		finalPlane = jacobi.PlaneV
	}
	copy(res.U[:nn], global.U0[:nn])
	copy(res.U[(global.Nz-1)*nn:], global.U0[(global.Nz-1)*nn:])
	if err := s.part.Gather(m.Fabric(), finalPlane, res.U); err != nil {
		return nil, err
	}
	res.PlanCache = s.pcBase
	res.PlanCache.Add(m.store().Stats())
	res.Traps = s.trapBase
	for _, nd := range m.participants() {
		res.TotalFLOPs += nd.Stats.FLOPs
		res.Traps.Add(nd.TrapCounters)
	}
	faults := s.faults()
	res.Faults = s.base
	res.Faults.Add(faults)
	m.FaultCounters.Add(faults)
	res.Recovery = s.lp.Recovery()
	m.RecoveryCounters.Add(res.Recovery)
	res.Cycles = m.MachineCycles
	if res.Cycles > 0 {
		res.GFLOPS = float64(res.TotalFLOPs) / (float64(res.Cycles) / m.Cfg.ClockHz) / 1e9
	}
	if m.StopAfter == 0 && !res.Converged && res.Iterations >= global.MaxIter {
		return res, fmt.Errorf("hypercube: no convergence in %d iterations (residual %g)", res.Iterations, res.Residual)
	}
	return res, nil
}

// participants returns every board that has run work for this machine:
// the constructed nodes plus any activated spares. Counter
// aggregations (FLOPs, traps) run over this set so a dead
// board's pre-death work and a spare's post-activation work are both
// reported.
func (m *Machine) participants() []*sim.Node {
	if len(m.activated) == 0 {
		return m.Nodes
	}
	return append(append([]*sim.Node(nil), m.Nodes...), m.activated...)
}

// corruptNode bit-flips count words at plane/addr of a node —
// deterministic payload corruption (sign plus scattered mantissa bits).
func (m *Machine) corruptNode(nd *sim.Node, plane int, addr int64, count int) error {
	data, err := nd.ReadWords(plane, addr, count)
	if err != nil {
		return err
	}
	for i, v := range data {
		data[i] = math.Float64frombits(math.Float64bits(v) ^ 0x8000000000000421)
	}
	return nd.WriteWords(plane, addr, data)
}

// ValidateCheckpoint rejects a snapshot that cannot restore a solve of
// an n×n×nz grid on this machine: one taken on another fabric or of
// another grid, or whose iterate grids are not n·n·nz words — a forged
// or mismatched file must fail with a clear error, never an index
// panic or a partial restore. The rank count it was taken on does not
// matter: its grids are global, so they restore onto any partition.
func (m *Machine) ValidateCheckpoint(ck *Checkpoint, n, nz int) error {
	if ck.Topology != m.Topo.Name() {
		return fmt.Errorf("hypercube: checkpoint recorded topology %q, machine runs %q",
			ck.Topology, m.Topo.Name())
	}
	if ck.N != n || ck.Nz != nz {
		return fmt.Errorf("hypercube: checkpoint grid %d×%d×%d does not match the solve's %d×%d×%d",
			ck.N, ck.N, ck.Nz, n, n, nz)
	}
	if words := n * n * nz; len(ck.U) != words || len(ck.V) != words {
		return fmt.Errorf("hypercube: checkpoint grids hold %d/%d words, want %d", len(ck.U), len(ck.V), words)
	}
	return nil
}

// restore writes a snapshot's iterate planes into every slab of part.
func (m *Machine) restore(ck *Checkpoint, part *engine.Partition) error {
	if err := m.ValidateCheckpoint(ck, part.N, part.Nz); err != nil {
		return err
	}
	return ck.mirror().Restore(m.Fabric(), part)
}

// InjectECC arms seeded memory-plane ECC events on ring rank r. Every
// rejection is a typed fault-plan diagnostic (R040).
func (m *Machine) InjectECC(r int, faults ...sim.ECCFault) error {
	if r < 0 || r >= m.P() {
		return diag.Errorf(diag.RuleFaultPlan, "hypercube: ECC fault node %d outside %d nodes", r, m.P())
	}
	return m.ring[r].InjectECC(faults...)
}

// RankECCFault is one parsed -ecc-faults entry: an ECC event aimed at
// a ring rank.
type RankECCFault struct {
	Rank  int
	Fault sim.ECCFault
}

// ParseRankECCFaults parses the nscsim -ecc-faults syntax: a
// comma-separated list of "rank:plane:addr:single|double". Errors are
// typed fault-plan diagnostics (R040).
func ParseRankECCFaults(spec string) ([]RankECCFault, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, nil
	}
	var out []RankECCFault
	for _, tok := range strings.Split(spec, ",") {
		tok = strings.TrimSpace(tok)
		rk, rest, ok := strings.Cut(tok, ":")
		if !ok || strings.TrimSpace(rest) == "" {
			return nil, diag.Errorf(diag.RuleFaultPlan, "hypercube: ECC fault %q: want rank:plane:addr:single|double", tok)
		}
		rank, err := strconv.Atoi(rk)
		if err != nil {
			return nil, diag.Errorf(diag.RuleFaultPlan, "hypercube: ECC fault rank %q: %w", rk, err)
		}
		fs, err := sim.ParseECCFaults(rest)
		if err != nil {
			return nil, err
		}
		out = append(out, RankECCFault{Rank: rank, Fault: fs[0]})
	}
	return out, nil
}

// PeakGFLOPS returns the machine's aggregate peak rate over the
// installed boards (dead boards included — the hardware exists even
// when degraded).
func (m *Machine) PeakGFLOPS() float64 {
	return float64(len(m.Nodes)) * m.Cfg.PeakFLOPS() / 1e9
}

// TotalMemoryBytes returns the machine's aggregate installed memory.
func (m *Machine) TotalMemoryBytes() int64 {
	return int64(len(m.Nodes)) * m.Cfg.NodeMemoryBytes()
}

// Efficiency returns achieved/peak for a result.
func (r *JacobiResult) Efficiency(m *Machine) float64 {
	peak := m.PeakGFLOPS()
	if peak == 0 {
		return 0
	}
	return r.GFLOPS / peak
}
