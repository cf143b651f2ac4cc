// Command nscsim executes assembled NSC microcode on the node
// simulator and reports the sequencer outcome and performance
// statistics.
//
// Usage:
//
//	nscsim [-subset] -prog prog.nscm [-max n] [-par n] [-load plane:addr:file] [-dump plane:addr:count]
//	nscsim -jacobi n [-cube d] [-sweeps n] [-faults spec] [-checkpoint-every n] [-checkpoint file] [-restore file]
//	nscsim -verify-checkpoint file
//
// -load fills a memory plane from a whitespace-separated list of
// float64 values before the run; -dump prints plane contents after.
// Both flags repeat. -par n runs the program SPMD-style on n simulated
// nodes concurrently through the bounded worker pool (every node gets
// the same program and the same -load data; -dump reads node 0), the
// multi-node shape of the paper's hypercube driver. The report always
// includes the decoded-instruction (plan) cache counters: with the
// decode-once engine, looping programs compile each distinct
// instruction once and replay the compiled pipeline configuration.
//
// -jacobi n switches to the multi-node driver: it solves the paper's
// n×n model Poisson problem on a 2^d-node machine (-cube d), two
// interior planes per node. -topology picks the interconnect fabric —
// hypercube (the default), mesh2d or torus2d — which changes only the
// simulated comm clocks: grids and residual series are bit-identical
// across fabrics. -sweeps fixes the sweep count (0 runs to
// convergence). -faults arms a deterministic fault plan (see
// hypercube.ParseFaultPlan for the syntax: either an event list like
// "dispatch:kill@2:1:repeat=2" or "seed@S:sweeps=N:ranks=P:events=K"),
// -checkpoint-every snapshots the solve at sweep boundaries,
// -checkpoint persists the latest snapshot to a file, and -restore
// resumes a solve from one.
//
// -kill "sweep:rank[,...]" is shorthand for permanent node deaths
// (dispatch:kill-forever events; it composes with -faults): the run
// then arms buddy mirroring and degraded-mode recovery, refilling each
// dead slot from the -spares pool or re-partitioning the solve over
// the survivors, and the report gains a "recovery:" line. The solve
// outcome is bit-identical to the fault-free run either way — only the
// clocks grow.
//
// The exception subsystem is armed with -trap-policy (halt, retry or
// quiet), -watchdog (a sequencer cycle budget per instruction) and
// -ecc-faults, which seeds memory-plane ECC events on the -jacobi
// driver ("rank:plane:addr:single|double", comma-separated). The
// report then carries a "traps:" line with the event counters.
// -verify-checkpoint checks every section checksum of a snapshot file
// and exits; any flipped bit or truncation is reported with the
// section name and byte offset.
//
// -bench-json runs the repo's performance probes (engine halo overlap,
// decoded-plan cache, trap-detection overhead) through the benchmark
// harness and emits one JSON record per probe; BENCH_PR4.json in the
// repo root is a committed reference run.
//
// -no-kernel pins every node to the reference interpreter instead of
// the specialized execution kernels the plan compiler lowers by
// default. Results are bit-identical either way — the differential
// suite pins that — so the flag exists for A/B timing and for
// isolating a suspected kernel miscompile. -cpuprofile and
// -memprofile write pprof profiles of the host process (the CPU
// profile brackets the whole run; the heap profile is taken on exit).
//
// -metrics-json and -trace-out arm the unified observability layer on
// the run (both -prog and -jacobi): after execution, -metrics-json
// writes the metrics registry (counters, gauges, log₂ histograms) as
// sorted JSON and -trace-out writes a Chrome trace_event file that
// chrome://tracing and https://ui.perfetto.dev load directly — the
// engine's phase timeline on track 0, each rank's dispatch/trap/ECC
// stream on track rank+1, all timestamped in simulated cycles. Either
// flag takes "-" for stdout. Everything recorded derives from
// simulated state, so the artifacts are bit-identical at any -par or
// worker setting.
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strconv"
	"strings"

	"repro/internal/arch"
	"repro/internal/diag"
	"repro/internal/engine"
	"repro/internal/hypercube"
	"repro/internal/jacobi"
	"repro/internal/microcode"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/topo"
)

type multi []string

func (m *multi) String() string     { return strings.Join(*m, ",") }
func (m *multi) Set(s string) error { *m = append(*m, s); return nil }

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point: it parses args, executes, and
// writes the report to stdout. Returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("nscsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	subset := fs.Bool("subset", false, "use the simplified architectural subset model")
	progPath := fs.String("prog", "", "microcode program to execute")
	max := fs.Int64("max", 0, "instruction budget (0 = default)")
	par := fs.Int("par", 1, "run the program on this many nodes concurrently (SPMD)")
	jacobiN := fs.Int("jacobi", 0, "solve the n×n model problem on the hypercube driver")
	cubeDim := fs.Int("cube", 0, "hypercube dimension for -jacobi (2^d nodes)")
	topology := fs.String("topology", "hypercube", "interconnect fabric for -jacobi: hypercube, mesh2d or torus2d")
	sweeps := fs.Int("sweeps", 0, "fixed sweep count for -jacobi (0 = run to convergence)")
	faults := fs.String("faults", "", "fault plan for -jacobi (event list or seed@... form)")
	kill := fs.String("kill", "", "permanently kill ranks during -jacobi: sweep:rank[,...]")
	spares := fs.Int("spares", 0, "hot-spare nodes available to replace permanently dead ranks")
	ckEvery := fs.Int("checkpoint-every", 0, "snapshot the -jacobi solve every n sweeps")
	ckPath := fs.String("checkpoint", "", "persist the latest -jacobi snapshot to this file")
	restore := fs.String("restore", "", "resume the -jacobi solve from this snapshot file")
	trapPolicy := fs.String("trap-policy", "", "exception policy: off, halt, retry or quiet")
	watchdog := fs.Int64("watchdog", 0, "sequencer watchdog budget in cycles per instruction (0 = off)")
	eccFaults := fs.String("ecc-faults", "", "seed ECC events for -jacobi: rank:plane:addr:{single|double},...")
	verifyCk := fs.String("verify-checkpoint", "", "verify a snapshot file's section checksums and exit")
	benchJSON := fs.Bool("bench-json", false, "run the performance probes and emit JSON records")
	noKernel := fs.Bool("no-kernel", false, "pin every node to the reference interpreter (disable specialized kernels)")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memProfile := fs.String("memprofile", "", "write a heap profile to this file on exit")
	metricsJSON := fs.String("metrics-json", "", "write the run's metrics registry as JSON to this file (- = stdout)")
	traceOut := fs.String("trace-out", "", "write a Chrome trace_event file for chrome://tracing / Perfetto (- = stdout)")
	var loads, dumps multi
	fs.Var(&loads, "load", "plane:addr:file — preload plane data")
	fs.Var(&dumps, "dump", "plane:addr:count — print plane words after the run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	for _, f := range []struct {
		name string
		v    int64
	}{{"sweeps", int64(*sweeps)}, {"spares", int64(*spares)}, {"checkpoint-every", int64(*ckEvery)}, {"watchdog", *watchdog}, {"max", *max}} {
		if f.v < 0 {
			err := diag.Errorf(diag.RuleNegativeCount, "-%s %d: must not be negative", f.name, f.v)
			fmt.Fprintf(stderr, "nscsim: %s [%s]\n", err, err.Rule())
			return 2
		}
	}

	cfg := arch.Default()
	if *subset {
		cfg = arch.Subset()
	}

	// Profiling taps: the CPU profile brackets everything after flag
	// parsing, the heap profile snapshots the retained set on exit.
	// Both capture host-side cost only — the simulation itself is
	// deterministic with or without them.
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(stderr, "nscsim:", err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			fmt.Fprintln(stderr, "nscsim:", err)
			return 1
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(stderr, "nscsim:", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(stderr, "nscsim:", err)
			}
		}()
	}

	if *benchJSON {
		if err := runBenchJSON(stdout, cfg); err != nil {
			fmt.Fprintln(stderr, "nscsim:", err)
			return 1
		}
		return 0
	}

	if *verifyCk != "" {
		ck, err := hypercube.VerifyCheckpointFile(*verifyCk)
		if err != nil {
			fmt.Fprintln(stderr, "nscsim:", err)
			return 1
		}
		fmt.Fprintf(stdout, "checkpoint %s: ok (sweep %d, %d rank(s), grid %d×%d×%d)\n",
			*verifyCk, ck.Sweep, ck.P, ck.N, ck.N, ck.Nz)
		return 0
	}

	pol, err := arch.ParseTrapPolicy(*trapPolicy)
	if err != nil {
		fmt.Fprintln(stderr, "nscsim:", err)
		return 2
	}
	trap := arch.TrapConfig{Policy: pol, WatchdogCycles: *watchdog}

	// Either observability flag arms the unified layer; nil keeps every
	// instrumented path on its zero-cost branch.
	var o *obs.Obs
	if *metricsJSON != "" || *traceOut != "" {
		o = obs.New()
	}

	if *jacobiN > 0 {
		err := runJacobi(stdout, cfg, *jacobiN, *cubeDim, *topology, *sweeps, *faults, *kill, *spares, *ckEvery, *ckPath, *restore, trap, *eccFaults, *noKernel, o)
		if err == nil {
			err = o.WriteFiles(stdout, *metricsJSON, *traceOut)
		}
		var de *diag.DiagError
		switch {
		case errors.As(err, &de):
			fmt.Fprintf(stderr, "nscsim: %s [%s]\n", err, de.Rule())
			return 1
		case err != nil:
			fmt.Fprintln(stderr, "nscsim:", err)
			return 1
		}
		return 0
	}
	if *eccFaults != "" {
		fmt.Fprintln(stderr, "nscsim: -ecc-faults needs the -jacobi driver")
		return 2
	}

	if *progPath == "" {
		fmt.Fprintln(stderr, "usage: nscsim -prog prog.nscm [-par n] [-load plane:addr:file] [-dump plane:addr:count]")
		fmt.Fprintln(stderr, "       nscsim -jacobi n [-cube d] [-sweeps n] [-faults spec] [-checkpoint-every n] [-restore file]")
		return 2
	}
	if *par < 1 {
		fmt.Fprintf(stderr, "nscsim: -par %d: need at least one node\n", *par)
		return 1
	}
	nodes := make([]*sim.Node, *par)
	for i := range nodes {
		n, err := sim.NewNode(cfg)
		if err != nil {
			fmt.Fprintln(stderr, "nscsim:", err)
			return 1
		}
		n.TrapCfg = trap
		n.KernelOff = *noKernel
		n.Obs = o
		n.ObsID = i
		nodes[i] = n
	}
	f, err := os.Open(*progPath)
	if err != nil {
		fmt.Fprintln(stderr, "nscsim:", err)
		return 1
	}
	prog, err := microcode.ReadProgram(f, nodes[0].F)
	f.Close()
	if err != nil {
		fmt.Fprintln(stderr, "nscsim:", err)
		return 1
	}

	for _, l := range loads {
		plane, addr, path, err := splitRef(l)
		if err != nil {
			fmt.Fprintln(stderr, "nscsim:", err)
			return 1
		}
		vals, err := readFloats(path)
		if err != nil {
			fmt.Fprintln(stderr, "nscsim:", err)
			return 1
		}
		for _, n := range nodes {
			if err := n.WriteWords(plane, addr, vals); err != nil {
				fmt.Fprintln(stderr, "nscsim:", err)
				return 1
			}
		}
	}

	// SPMD dispatch: every node runs the same program against its own
	// state, bounded by the worker pool; the first failure cancels.
	results := make([]sim.RunResult, len(nodes))
	if err := engine.ParallelFor(*par, len(nodes), func(i int) error {
		var err error
		results[i], err = nodes[i].Run(prog, *max)
		if err != nil {
			return fmt.Errorf("node %d: %w", i, err)
		}
		return nil
	}); err != nil {
		fmt.Fprintln(stderr, "nscsim:", err)
		return 1
	}

	node, res := nodes[0], results[0]
	st := node.Stats
	if *par > 1 {
		agree := 0
		for i, r := range results {
			if r == res && statsEqual(nodes[i].Stats, st) {
				agree++
			}
		}
		fmt.Fprintf(stdout, "%d nodes ran the program concurrently; %d/%d report identical outcomes\n",
			*par, agree, *par)
	}
	fmt.Fprintf(stdout, "executed %d instruction(s), halted at pc %d\n", res.Executed, res.FinalPC)
	fmt.Fprintf(stdout, "cycles %d (%.3f ms at %.0f MHz)  FLOPs %d  %.1f MFLOPS  interrupts %d  flags %016b\n",
		st.Cycles, st.Seconds(cfg.ClockHz)*1e3, cfg.ClockHz/1e6, st.FLOPs, st.MFLOPS(cfg.ClockHz), len(node.IRQs), node.Flags)
	pc := node.PlanCacheStats()
	fmt.Fprintf(stdout, "plan cache: %d compiled, %d hits, %d misses (decode-once engine)\n",
		pc.Entries, pc.Hits, pc.Misses)
	if trap.Armed() || !res.Traps.Zero() {
		fmt.Fprintf(stdout, "traps: %s\n", res.Traps)
	}

	for _, d := range dumps {
		plane, addr, countStr, err := splitRef(d)
		if err != nil {
			fmt.Fprintln(stderr, "nscsim:", err)
			return 1
		}
		count, err := strconv.Atoi(countStr)
		if err != nil {
			fmt.Fprintf(stderr, "nscsim: dump count: %v\n", err)
			return 1
		}
		vals, err := node.ReadWords(plane, addr, count)
		if err != nil {
			fmt.Fprintln(stderr, "nscsim:", err)
			return 1
		}
		fmt.Fprintf(stdout, "plane %d @%d:", plane, addr)
		for _, v := range vals {
			fmt.Fprintf(stdout, " %g", v)
		}
		fmt.Fprintln(stdout)
	}
	if err := o.WriteFiles(stdout, *metricsJSON, *traceOut); err != nil {
		fmt.Fprintln(stderr, "nscsim:", err)
		return 1
	}
	return 0
}

// runJacobi drives the multi-node solver with the robustness knobs.
func runJacobi(stdout io.Writer, cfg arch.Config, n, dim int, topology string, sweeps int,
	faultSpec, killSpec string, spares, ckEvery int, ckPath, restore string,
	trap arch.TrapConfig, eccSpec string, noKernel bool, o *obs.Obs) error {
	if dim < 0 || dim > 10 {
		return fmt.Errorf("hypercube: dimension %d out of range", dim)
	}
	t, err := topo.New(topology, 1<<uint(dim))
	if err != nil {
		return err
	}
	m, err := hypercube.NewWithTopology(cfg, t)
	if err != nil {
		return err
	}
	m.Workers = -1
	m.Obs = o
	m.StopAfter = sweeps
	m.CheckpointEvery = ckEvery
	m.Trap = trap
	if err := m.AddSpares(spares); err != nil {
		return err
	}
	for _, nd := range slices.Concat(m.Nodes, m.Spares) {
		nd.KernelOff = noKernel
	}
	if eccSpec != "" {
		faults, err := hypercube.ParseRankECCFaults(eccSpec)
		if err != nil {
			return err
		}
		for _, f := range faults {
			if err := m.InjectECC(f.Rank, f.Fault); err != nil {
				return err
			}
		}
	}
	if faultSpec != "" || killSpec != "" {
		plan, err := hypercube.ParseFaultPlan(faultSpec)
		if err != nil {
			return err
		}
		if killSpec != "" {
			events := plan.Events
			for _, tok := range strings.Split(killSpec, ",") {
				sw, rk, ok := strings.Cut(strings.TrimSpace(tok), ":")
				if !ok {
					return fmt.Errorf("nscsim: -kill %q: want sweep:rank[,...]", tok)
				}
				sweep, err := strconv.Atoi(sw)
				if err != nil {
					return fmt.Errorf("nscsim: -kill %q: sweep %q is not an integer", tok, sw)
				}
				rank, err := strconv.Atoi(rk)
				if err != nil {
					return fmt.Errorf("nscsim: -kill %q: rank %q is not an integer", tok, rk)
				}
				events = append(events, hypercube.FaultEvent{
					Sweep: sweep, Phase: hypercube.PhaseDispatch, Rank: rank,
					Kind: hypercube.FaultKillForever,
				})
			}
			if plan, err = hypercube.NewFaultPlan(events...); err != nil {
				return err
			}
		}
		m.Faults = plan
	}
	if ckPath != "" {
		if ckEvery == 0 {
			m.CheckpointEvery = 8
		}
		m.CheckpointSink = func(ck *hypercube.Checkpoint) error {
			return hypercube.SaveCheckpointFile(ckPath, ck)
		}
	}
	if restore != "" {
		ck, err := hypercube.LoadCheckpointFile(restore)
		if err != nil {
			return err
		}
		m.Restore = ck
	}

	// The model problem: n×n planes, two interior planes per node, unit
	// source, homogeneous boundary — the parallel driver's test shape.
	g := jacobi.NewModelProblem(n, 1e-4, 400)
	g.Nz = 2*m.P() + 2
	g.F = make([]float64, g.Cells())
	g.U0 = make([]float64, g.Cells())
	g.Mask = make([]float64, g.Cells())
	for k := 0; k < g.Nz; k++ {
		for j := 0; j < g.N; j++ {
			for i := 0; i < g.N; i++ {
				idx := g.Index(i, j, k)
				g.F[idx] = 1
				if i > 0 && i < g.N-1 && j > 0 && j < g.N-1 && k > 0 && k < g.Nz-1 {
					g.Mask[idx] = 1
				}
			}
		}
	}
	fmt.Fprintf(stdout, "%s: %d node(s) (%s), grid %d×%d×%d, %d plane(s) per node\n",
		m.Topo.Name(), m.P(), m.Topo.Shape(), g.N, g.N, g.Nz, (g.Nz-2)/m.P())
	res, err := m.SolveJacobi(g)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "jacobi: %d sweep(s), converged %v, residual %g\n",
		res.Iterations, res.Converged, res.Residual)
	fmt.Fprintf(stdout, "cycles: machine %d, comm %d\n", m.MachineCycles, m.CommCycles)
	fmt.Fprintf(stdout, "plan cache: %d compiled, %d hits, %d misses (decode-once engine)\n",
		res.PlanCache.Entries, res.PlanCache.Hits, res.PlanCache.Misses)
	fmt.Fprintf(stdout, "faults: %s\n", res.Faults)
	fmt.Fprintf(stdout, "traps: %s\n", res.Traps)
	// The recovery line appears only when the degraded-mode machinery is
	// armed, so fault-free reports stay byte-identical to before.
	if m.Faults.HasPermanent() || res.Recovery != (hypercube.RecoveryStats{}) {
		lv := m.Liveness()
		fmt.Fprintf(stdout, "recovery: %s; %d node(s) live, %d spare(s) used, %d free\n",
			res.Recovery, lv.Live, lv.SparesUsed, lv.SparesFree)
	}
	return nil
}

// statsEqual compares Stats field by field, including the per-unit
// utilization slice.
func statsEqual(a, b sim.Stats) bool {
	if a.Instructions != b.Instructions || a.Cycles != b.Cycles ||
		a.FLOPs != b.FLOPs || a.Elements != b.Elements ||
		len(a.FUBusy) != len(b.FUBusy) {
		return false
	}
	for i := range a.FUBusy {
		if a.FUBusy[i] != b.FUBusy[i] {
			return false
		}
	}
	return true
}

// splitRef parses "plane:addr:rest".
func splitRef(s string) (plane int, addr int64, rest string, err error) {
	parts := strings.SplitN(s, ":", 3)
	if len(parts) != 3 {
		return 0, 0, "", fmt.Errorf("malformed reference %q (want plane:addr:x)", s)
	}
	if plane, err = strconv.Atoi(parts[0]); err != nil {
		return 0, 0, "", fmt.Errorf("plane in %q: %w", s, err)
	}
	if addr, err = strconv.ParseInt(parts[1], 10, 64); err != nil {
		return 0, 0, "", fmt.Errorf("addr in %q: %w", s, err)
	}
	return plane, addr, parts[2], nil
}

func readFloats(path string) ([]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var vals []float64
	sc := bufio.NewScanner(f)
	sc.Split(bufio.ScanWords)
	for sc.Scan() {
		v, err := strconv.ParseFloat(sc.Text(), 64)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		vals = append(vals, v)
	}
	return vals, sc.Err()
}
