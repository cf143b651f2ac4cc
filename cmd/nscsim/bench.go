package main

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"testing"

	"repro/internal/arch"
	"repro/internal/hypercube"
	"repro/internal/jacobi"
	"repro/internal/microcode"
	"repro/internal/multigrid"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/sim"
	"repro/internal/topo"
)

// -bench-json runs the repo's headline performance probes through
// testing.Benchmark and emits machine-readable results, so a CI step
// (or a developer) can track the numbers without the go test bench
// harness. Each record carries ns/op and allocs/op plus
// probe-specific metrics; the BENCH_PR*.json files in the repo root
// are committed reference runs.

type benchRecord struct {
	Name        string             `json:"name"`
	Iters       int                `json:"iterations"`
	NsPerOp     float64            `json:"ns_per_op"`
	AllocsPerOp float64            `json:"allocs_per_op"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

func record(name string, r testing.BenchmarkResult, metrics map[string]float64) benchRecord {
	return benchRecord{
		Name:        name,
		Iters:       r.N,
		NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
		AllocsPerOp: float64(r.AllocsPerOp()),
		Metrics:     metrics,
	}
}

// benchOpts selects the robustness machinery a bench solve arms on top
// of the fault-free baseline.
type benchOpts struct {
	o          *obs.Obs
	faults     *hypercube.FaultPlan
	spares     int
	buddyEvery int
	topology   string // fabric name; empty means hypercube
}

// benchSolve runs the 8-node Jacobi solve the performance probes time:
// fault-free by default, with the fabric, observability layer, fault plan, spare pool and buddy-mirror stride chosen by opts.
func benchSolve(cfg arch.Config, opts benchOpts) (*hypercube.JacobiResult, *hypercube.Machine, error) {
	name := opts.topology
	if name == "" {
		name = "hypercube"
	}
	tp, err := topo.New(name, 8)
	if err != nil {
		return nil, nil, err
	}
	m, err := hypercube.NewWithTopology(cfg, tp)
	if err != nil {
		return nil, nil, err
	}
	m.Workers = runtime.GOMAXPROCS(0)
	m.StopAfter = 12
	m.Obs = opts.o
	m.Faults = opts.faults
	m.BuddyEvery = opts.buddyEvery
	if opts.spares > 0 {
		if err := m.AddSpares(opts.spares); err != nil {
			return nil, nil, err
		}
	}
	g := jacobi.NewModelProblem(8, 1e-4, 400)
	g.Nz = m.P()*2 + 2
	g.F = make([]float64, g.Cells())
	g.U0 = make([]float64, g.Cells())
	g.Mask = make([]float64, g.Cells())
	for k := 1; k < g.Nz-1; k++ {
		for j := 1; j < g.N-1; j++ {
			for i := 1; i < g.N-1; i++ {
				g.Mask[g.Index(i, j, k)] = 1
			}
		}
	}
	for c := range g.F {
		g.F[c] = 1
	}
	res, err := m.SolveJacobi(g)
	return res, m, err
}

// loadSweep compiles the forward sweep of a 12³ model problem for the
// node through the compile pipeline and loads the problem's arrays: the
// warm instruction the execution probes replay.
func loadSweep(node *sim.Node) (*microcode.Instr, error) {
	p := jacobi.NewModelProblem(12, 1e-6, 1)
	res, err := p.Compile(pipeline.New(node.Inv))
	if err != nil {
		return nil, err
	}
	ins, err := res.Instrs(0)
	if err != nil {
		return nil, err
	}
	return ins[0], p.Load(node)
}

func runBenchJSON(stdout io.Writer, cfg arch.Config) error {
	var out []benchRecord

	// Engine overlap: the fault-free distributed solve on the engine's
	// gather/scatter halo path.
	{
		var cycles, comm int64
		r := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, m, err := benchSolve(cfg, benchOpts{})
				if err != nil {
					b.Fatal(err)
				}
				cycles, comm = m.MachineCycles, m.CommCycles
			}
		})
		out = append(out, record("engine-overlap/overlap", r, map[string]float64{
			"machine_cycles": float64(cycles),
			"comm_cycles":    float64(comm),
		}))
	}

	// Plan cache: the decode-once engine on the warm path — the same
	// compiled pipeline replayed every iteration.
	{
		node, err := sim.NewNode(cfg)
		if err != nil {
			return err
		}
		in, err := loadSweep(node)
		if err != nil {
			return err
		}
		r := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := node.Exec(in); err != nil {
					b.Fatal(err)
				}
			}
		})
		pc := node.PlanCacheStats()
		out = append(out, record("plan-cache/warm-exec", r, map[string]float64{
			"plan_hits":    float64(pc.Hits),
			"plan_misses":  float64(pc.Misses),
			"plan_entries": float64(pc.Entries),
		}))
	}

	// Kernel execution: the same warm compiled pipeline dispatched
	// through the specialized kernel (the default) and pinned to the
	// reference interpreter. The results are bit-identical — only the
	// host time and the allocation count move, and the fast path must
	// sit at zero allocs/op.
	{
		var nsPer [2]float64
		for i, mode := range []struct {
			name string
			off  bool
		}{{"kernel-exec/warm", false}, {"kernel-exec/interp", true}} {
			node, err := sim.NewNode(cfg)
			if err != nil {
				return err
			}
			node.KernelOff = mode.off
			in, err := loadSweep(node)
			if err != nil {
				return err
			}
			r := testing.Benchmark(func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if err := node.Exec(in); err != nil {
						b.Fatal(err)
					}
				}
			})
			nsPer[i] = float64(r.T.Nanoseconds()) / float64(r.N)
			ks := node.KernelStatsOf()
			m := map[string]float64{
				"kernel_fast": float64(ks.Fast),
				"kernel_slow": float64(ks.Slow),
			}
			if mode.off {
				m["slowdown"] = nsPer[1] / nsPer[0]
			}
			out = append(out, record(mode.name, r, m))
		}
	}

	// Trap overhead: the same instruction with exception detection off
	// and armed (no traps fire; simulated cycles are identical).
	for _, mode := range []struct {
		name string
		tc   arch.TrapConfig
	}{
		{"trap-overhead/off", arch.TrapConfig{}},
		{"trap-overhead/armed", arch.TrapConfig{Policy: arch.TrapRetry, WatchdogCycles: 1 << 30}},
	} {
		node, err := sim.NewNode(cfg)
		if err != nil {
			return err
		}
		node.TrapCfg = mode.tc
		in, err := loadSweep(node)
		if err != nil {
			return err
		}
		r := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := node.Exec(in); err != nil {
					b.Fatal(err)
				}
			}
		})
		out = append(out, record(mode.name, r, nil))
	}

	// Compile cache: the content-addressed front end on the cold path
	// (cache reset every iteration) versus the warm path (same document
	// replayed from the cache). Mirrors BenchmarkCompileCache.
	{
		inv, err := arch.NewInventory(cfg)
		if err != nil {
			return err
		}
		p := jacobi.NewModelProblem(12, 1e-6, 1)
		doc, _, err := p.BuildDocument(cfg)
		if err != nil {
			return err
		}
		pl := pipeline.New(inv)
		cold := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				pl.Cache.Reset()
				if _, err := pl.CompileDocument(doc); err != nil {
					b.Fatal(err)
				}
			}
		})
		pl.Cache.Reset()
		if _, err := pl.CompileDocument(doc); err != nil {
			return err
		}
		warm := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := pl.CompileDocument(doc); err != nil {
					b.Fatal(err)
				}
			}
		})
		cs := pl.Cache.Stats()
		out = append(out, record("compile-cache/cold", cold, nil))
		out = append(out, record("compile-cache/warm-hit", warm, map[string]float64{
			"compile_hits":    float64(cs.Hits),
			"compile_misses":  float64(cs.Misses),
			"compile_entries": float64(cs.Entries),
			"speedup":         float64(cold.T.Nanoseconds()) / float64(cold.N) / (float64(warm.T.Nanoseconds()) / float64(warm.N)),
		}))
	}

	// Observability overhead: the same multi-node solve with the
	// unified obs layer disabled and armed. Simulated clocks must be
	// identical — the layer only reads simulated state — so both records
	// carry them for the differential check; wall time is the overhead.
	for _, mode := range []struct {
		name  string
		armed bool
	}{{"obs-overhead/disabled", false}, {"obs-overhead/enabled", true}} {
		var cycles, comm int64
		r := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				var o *obs.Obs
				if mode.armed {
					o = obs.New()
				}
				_, m, err := benchSolve(cfg, benchOpts{o: o})
				if err != nil {
					b.Fatal(err)
				}
				cycles, comm = m.MachineCycles, m.CommCycles
			}
		})
		out = append(out, record(mode.name, r, map[string]float64{
			"machine_cycles": float64(cycles),
			"comm_cycles":    float64(comm),
		}))
	}

	// Recovery overhead: the degraded-mode machinery priced four ways.
	// The buddy mirror on a clean run must cost zero simulated cycles
	// (host-side bookkeeping; wall time is its only price), while a
	// permanent kill recovered through a spare or a shrinking
	// re-partition reports the simulated cycles the recovery cost over
	// the clean baseline.
	{
		killPlan := func() *hypercube.FaultPlan {
			return hypercube.MustFaultPlan(hypercube.FaultEvent{
				Sweep: 6, Phase: hypercube.PhaseDispatch, Rank: 3,
				Kind: hypercube.FaultKillForever,
			})
		}
		var cleanCycles int64
		for _, mode := range []struct {
			name string
			opts func() benchOpts
		}{
			{"recovery-overhead/clean", func() benchOpts { return benchOpts{} }},
			{"recovery-overhead/buddy-clean", func() benchOpts { return benchOpts{buddyEvery: 1} }},
			{"recovery-overhead/kill-spare", func() benchOpts { return benchOpts{faults: killPlan(), spares: 1} }},
			{"recovery-overhead/kill-shrink", func() benchOpts { return benchOpts{faults: killPlan()} }},
		} {
			var cycles, comm int64
			var rec hypercube.RecoveryStats
			r := testing.Benchmark(func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					res, m, err := benchSolve(cfg, mode.opts())
					if err != nil {
						b.Fatal(err)
					}
					cycles, comm, rec = m.MachineCycles, m.CommCycles, res.Recovery
				}
			})
			if mode.name == "recovery-overhead/clean" {
				cleanCycles = cycles
			}
			out = append(out, record(mode.name, r, map[string]float64{
				"machine_cycles": float64(cycles),
				"comm_cycles":    float64(comm),
				"cycles_lost":    float64(cycles - cleanCycles),
				"recoveries":     float64(rec.Recoveries),
				"resweeps":       float64(rec.ResweptSweeps),
			}))
		}
	}

	// Topology cost model: the same two solves — the 8-node Jacobi slab
	// and the distributed multigrid — over every fabric the topology
	// layer ships. The solutions are bit-identical across fabrics (the
	// differential tests pin that); these records track what each
	// fabric's hop metric charges the simulated clocks for it.
	for _, topology := range topo.Names() {
		var cycles, comm int64
		r := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, m, err := benchSolve(cfg, benchOpts{topology: topology})
				if err != nil {
					b.Fatal(err)
				}
				cycles, comm = m.MachineCycles, m.CommCycles
			}
		})
		out = append(out, record("topology-jacobi/"+topology, r, map[string]float64{
			"machine_cycles": float64(cycles),
			"comm_cycles":    float64(comm),
		}))
	}
	for _, topology := range topo.Names() {
		runMG := func() (*multigrid.DistResult, *hypercube.Machine, error) {
			tp, err := topo.New(topology, 8)
			if err != nil {
				return nil, nil, err
			}
			m, err := hypercube.NewWithTopology(cfg, tp)
			if err != nil {
				return nil, nil, err
			}
			m.Workers = runtime.GOMAXPROCS(0)
			d, err := multigrid.NewDistributed(multigrid.DistConfig{
				Fabric:    m.Fabric(),
				Cfg:       cfg,
				N:         17,
				Levels:    2,
				Tol:       1e-6,
				MaxCycles: 100,
				Workers:   m.Workers,
			})
			if err != nil {
				return nil, nil, err
			}
			res, err := d.Run()
			return res, m, err
		}
		var cycles, comm int64
		var vcycles int
		r := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, m, err := runMG()
				if err != nil {
					b.Fatal(err)
				}
				cycles, comm, vcycles = m.MachineCycles, m.CommCycles, res.VCycles
			}
		})
		out = append(out, record("topology-multigrid/"+topology, r, map[string]float64{
			"machine_cycles": float64(cycles),
			"comm_cycles":    float64(comm),
			"v_cycles":       float64(vcycles),
		}))
	}

	enc := json.NewEncoder(stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		return fmt.Errorf("bench-json: %w", err)
	}
	return nil
}
