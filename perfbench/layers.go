package main

import (
	"runtime"
	"sort"
	"time"

	"repro/internal/arch"
	"repro/internal/codegen"
	"repro/internal/diagram"
	"repro/internal/engine"
	"repro/internal/jacobi"
	"repro/internal/microcode"
	"repro/internal/multigrid"
	"repro/internal/sim"
)

// accountTolerance is the share of the untraced time_to_solution_s the
// traced layer self-times may leave unexplained.
const accountTolerance = 0.10

// phaseOrder ranks the engine phases within one sweep (or multigrid
// op), so a callback whose (sweep, phase) does not advance marks a
// rollback or a recovery replay.
var phaseOrder = map[string]int{"checkpoint": 0, "buddy": 1, "dispatch": 2, "combine": 3, "exchange": 4}

// probe times one solve from outside, at public calls only: the solver
// entry points, the engine-phase Observe hook and the checkpoint sink.
// Untraced it records only the end of the first dispatch phase; traced
// it also keeps every gap between phase callbacks, attributed to the
// phase whose callback closes it.
type probe struct {
	traced bool

	t0, tConstructed, tBuilt, tEnd, last time.Time
	setup                                time.Duration

	n          int
	lastKey    int
	firstPhase string
	gaps       map[string][]time.Duration
	cycles     map[string]int64
	recovery   time.Duration
	encode     time.Duration
	ckBytes    int64
}

func newProbe(traced bool) *probe {
	return &probe{traced: traced, gaps: map[string][]time.Duration{}, cycles: map[string]int64{}}
}

func (p *probe) start() { p.t0 = time.Now() }

// constructed marks the machine built; gaps are measured from here.
func (p *probe) constructed() { p.tConstructed = time.Now(); p.last = p.tConstructed }

// built marks the end of a separate solver-construction call
// (multigrid.NewDistributed); the first gap then starts at Run.
func (p *probe) built() { p.tBuilt = time.Now(); p.last = p.tBuilt }

func (p *probe) stop() { p.tEnd = time.Now() }

func (p *probe) total() time.Duration { return p.tEnd.Sub(p.t0) }

// sink records one checkpoint encode done inside Machine.CheckpointSink.
func (p *probe) sink(d time.Duration, bytes int64) {
	p.encode += d
	p.ckBytes += bytes
}

// observe is the Machine.Observe / DistConfig.Observe hook. It runs on
// the engine's coordinating goroutine, never concurrently.
func (p *probe) observe(phase string, sweep int, cycles int64) {
	if !p.traced {
		if p.setup == 0 && phase == "dispatch" {
			p.setup = time.Since(p.t0)
		}
		return
	}
	now := time.Now()
	if p.setup == 0 && phase == "dispatch" {
		p.setup = now.Sub(p.t0)
	}
	gap := now.Sub(p.last)
	p.last = now
	p.cycles[phase] += cycles
	key := sweep*len(phaseOrder) + phaseOrder[phase]
	switch {
	case p.n == 0:
		p.firstPhase = phase // its gap holds the setup; see attribute
	case key <= p.lastKey:
		p.recovery += gap
	default:
		p.gaps[phase] = append(p.gaps[phase], gap)
	}
	p.n++
	p.lastKey = key
}

// replayTimes is the setup replay: the public calls engine.CompileSweeps
// makes (Partition.Local → Problem.BuildDocument →
// codegen.Generator.Pipeline → Problem.Load), then sim.Node.Exec on the
// fresh nodes, each stage timed across the same worker pool the solver
// uses.
type replayTimes struct {
	editor, codegen, load  time.Duration
	compileFwd, compileBwd time.Duration
	execWarm               time.Duration // one warm Exec on one node
	editorAlloc            uint64
	docs, instrs           int
	hostPerCycle           time.Duration // multigrid host work per V-cycle
}

func replaySetup(cfg arch.Config, part *engine.Partition, global *jacobi.Problem, workers int, trap arch.TrapConfig) (*replayTimes, error) {
	p := part.P
	locals := make([]*jacobi.Problem, p)
	nodes := make([]*sim.Node, p)
	for r := 0; r < p; r++ {
		var err error
		if locals[r], err = part.Local(cfg, global, r); err != nil {
			return nil, err
		}
		if nodes[r], err = sim.NewNode(cfg); err != nil {
			return nil, err
		}
		nodes[r].TrapCfg = trap
	}
	docs := make([]*diagram.Document, p)
	fwd := make([]*microcode.Instr, p)
	bwd := make([]*microcode.Instr, p)
	perCall := make([]time.Duration, p)
	stage := func(fn func(r int) error) (time.Duration, error) {
		t := time.Now()
		err := engine.ParallelFor(workers, p, fn)
		return time.Since(t), err
	}
	exec := func(in []*microcode.Instr) func(r int) error {
		return func(r int) error {
			t := time.Now()
			err := nodes[r].Exec(in[r])
			perCall[r] = time.Since(t)
			return err
		}
	}

	rt := &replayTimes{docs: p, instrs: 2 * p}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	var err error
	if rt.editor, err = stage(func(r int) error {
		var err error
		docs[r], _, err = locals[r].BuildDocument(cfg)
		return err
	}); err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&ms1)
	rt.editorAlloc = ms1.TotalAlloc - ms0.TotalAlloc
	if rt.codegen, err = stage(func(r int) error {
		gen := codegen.New(arch.MustInventory(cfg))
		var err error
		if fwd[r], _, err = gen.Pipeline(docs[r], docs[r].Pipes[0]); err != nil {
			return err
		}
		bwd[r], _, err = gen.Pipeline(docs[r], docs[r].Pipes[1])
		return err
	}); err != nil {
		return nil, err
	}
	if rt.load, err = stage(func(r int) error { return locals[r].Load(nodes[r]) }); err != nil {
		return nil, err
	}
	// Plan compile is the first Exec of an instruction on a fresh node
	// minus a warm Exec of the same instruction.
	var walls [4]time.Duration
	for i, in := range [][]*microcode.Instr{fwd, fwd, bwd, bwd} {
		if walls[i], err = stage(exec(in)); err != nil {
			return nil, err
		}
		if i == 1 {
			rt.execWarm = mean(perCall)
		}
	}
	rt.compileFwd, rt.compileBwd = walls[0]-walls[1], walls[2]-walls[3]
	return rt, nil
}

// replayHost times the host side of one distributed V-cycle with the
// same public calls the distributed solver makes: gather the fine
// residual planes, restrict, seed and run the coarse chain parked
// behind rank 0's slab, prolong, and scatter the correction.
func replayHost(cfg arch.Config, part *engine.Partition) (time.Duration, error) {
	n, nn := part.N, part.NN()
	nc := (n-1)/2 + 1
	nodes := make([]*sim.Node, part.P)
	for r := range nodes {
		var err error
		if nodes[r], err = sim.NewNode(cfg); err != nil {
			return 0, err
		}
	}
	base := int64(2*(part.Planes[0]+2)*nn + 2*nn)
	coarse, err := multigrid.NewOnNode(cfg, nodes[0], nc, mgLevels-1, mgTol, mgMax, base)
	if err != nil {
		return 0, err
	}
	cp := coarse.Levels[0].P
	fine := make([]float64, n*nn)
	zero := make([]float64, cp.Cells())
	cycle := func() error {
		for r, nd := range nodes {
			lo := part.Lo[r]
			if err := nd.ReadWordsInto(multigrid.PlaneR, int64(nn), fine[lo*nn:(lo+part.Planes[r])*nn]); err != nil {
				return err
			}
		}
		if err := nodes[0].WriteWords(jacobi.PlaneF, cp.VarBase, multigrid.Restrict(fine, n, nc)); err != nil {
			return err
		}
		if err := nodes[0].WriteWords(jacobi.PlaneU, cp.VarBase, zero); err != nil {
			return err
		}
		if err := coarse.VCycle(); err != nil {
			return err
		}
		cu, err := nodes[0].ReadWords(jacobi.PlaneU, cp.VarBase, cp.Cells())
		if err != nil {
			return err
		}
		e := multigrid.Prolong(cu, nc, n)
		for r, nd := range nodes {
			lo := part.Lo[r]
			if err := nd.WriteWords(multigrid.PlaneE, 0, e[(lo-1)*nn:(lo+part.Planes[r]+1)*nn]); err != nil {
				return err
			}
		}
		return nil
	}
	if err := cycle(); err != nil { // compiles the coarse plans
		return 0, err
	}
	ts := make([]time.Duration, 5)
	for i := range ts {
		t := time.Now()
		if err := cycle(); err != nil {
			return 0, err
		}
		ts[i] = time.Since(t)
	}
	return median(ts), nil
}

// medianReplay takes each stage's median over several replays.
func medianReplay(rs []*replayTimes) *replayTimes {
	pick := func(f func(*replayTimes) time.Duration) time.Duration {
		ds := make([]time.Duration, len(rs))
		for i, r := range rs {
			ds[i] = f(r)
		}
		return median(ds)
	}
	out := *rs[0]
	out.editor = pick(func(r *replayTimes) time.Duration { return r.editor })
	out.codegen = pick(func(r *replayTimes) time.Duration { return r.codegen })
	out.load = pick(func(r *replayTimes) time.Duration { return r.load })
	out.compileFwd = pick(func(r *replayTimes) time.Duration { return r.compileFwd })
	out.compileBwd = pick(func(r *replayTimes) time.Duration { return r.compileBwd })
	out.execWarm = pick(func(r *replayTimes) time.Duration { return r.execWarm })
	out.hostPerCycle = pick(func(r *replayTimes) time.Duration { return r.hostPerCycle })
	return &out
}

// attribute splits one traced solve's host time into layer self-times
// (seconds). Each gap between phase callbacks belongs to the phase that
// closes it; the replayed stages are children carved out of the span
// they ran in:
//   - the first gap holds the solver's own setup plus the first phase's
//     work, estimated as the median of that phase's other gaps;
//   - plan compiles run inside dispatch gaps (the forward plans in the
//     first one);
//   - checkpoint encodes run inside checkpoint gaps;
//   - multigrid host work runs inside the gap that closes at the
//     correction dispatch.
//
// What no span covers — the setup not replayed on Jacobi and the time
// after the last callback — is left out and shows as trace.unattributed_s.
func attribute(p *probe, rt *replayTimes, iters int, multigridRun bool) map[string]float64 {
	t := map[string]time.Duration{}
	for ph, gs := range p.gaps {
		for _, g := range gs {
			t[ph] += g
		}
	}
	t[p.firstPhase] += median(p.gaps[p.firstPhase])
	t["dispatch"] -= rt.compileFwd + rt.compileBwd
	if p.firstPhase == "dispatch" {
		t["dispatch"] += rt.compileFwd
	}
	t["checkpoint"] -= p.encode
	var host, build time.Duration
	if multigridRun {
		host = time.Duration(iters) * rt.hostPerCycle
		t["dispatch"] -= host
		build = p.tBuilt.Sub(p.tConstructed) - rt.editor - rt.codegen - rt.load
	}
	sec := func(d time.Duration) float64 { return d.Seconds() }
	return map[string]float64{
		"hypercube.construct_s":         sec(p.tConstructed.Sub(p.t0)),
		"editor.build_s":                sec(rt.editor),
		"codegen.gen_s":                 sec(rt.codegen),
		"sim.load_s":                    sec(rt.load),
		"sim.plan_compile_s":            sec(rt.compileFwd + rt.compileBwd),
		"engine.dispatch_s":             sec(t["dispatch"]),
		"engine.exchange_s":             sec(t["exchange"]),
		"engine.combine_s":              sec(t["combine"]),
		"engine.buddy_s":                sec(t["buddy"]),
		"engine.checkpoint_s":           sec(t["checkpoint"]),
		"hypercube.checkpoint_encode_s": sec(p.encode),
		"hypercube.recovery_s":          sec(p.recovery),
		"multigrid.host_s":              sec(host),
		"multigrid.build_s":             sec(build),
	}
}

func median(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func mean(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range ds {
		sum += d
	}
	return sum / time.Duration(len(ds))
}
