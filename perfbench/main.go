// Command perfbench is the repository's end-to-end solver benchmark. It
// runs one workload through the public solver entry points for a fixed
// time, checks every answer bit for bit against the host reference, and
// prints the metrics; the last line of standard output is one JSON
// record. With -trace 1 it instead reports host time split by layer.
//
//	go run . -workload jacobi-converge -seed 1 -seconds 30 -trace 0
//
// See README.md for the workloads, metrics and the layer map.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// maxWorkers is the host worker pool every workload runs with, capped
// at the CPUs present.
const maxWorkers = 2

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload name")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 10, "measured time per run")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := findWorkload(*name)
	if !ok || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		var names []string
		for _, w := range workloads {
			names = append(names, w.name)
		}
		fmt.Fprintf(stderr, "usage: perfbench -workload {%s} -seed N -seconds S -trace 0|1\n", strings.Join(names, "|"))
		return 2
	}
	workers := min(maxWorkers, runtime.NumCPU())
	runtime.GOMAXPROCS(workers)

	inst, err := w.prepare(*seed)
	if err != nil {
		fmt.Fprintf(stderr, "%s: %v\n", w.name, err)
		return 1
	}
	fmt.Fprintf(stdout, "%s seed=%d: %s; workers %d, closed loop, one solve at a time\n", w.name, *seed, inst.note(), workers)
	s := &runner{inst: inst, workers: workers, label: fmt.Sprintf("%s seed=%d", w.name, *seed), out: stdout, log: stderr}
	budget := time.Duration(*seconds * float64(time.Second))
	var metrics map[string]metric
	if *trace == 0 {
		metrics = s.measure(budget)
	} else {
		metrics = s.measureTraced(budget)
	}
	if err := s.report(metrics); err != nil {
		fmt.Fprintf(stderr, "%s: %v\n", w.name, err)
		return 1
	}
	if s.failed > 0 {
		return 1
	}
	return 0
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// sample is one measured solve.
type sample struct {
	total, setup time.Duration
	iters        int
	alloc, live  uint64
}

// runner runs solves of one instance and counts outcomes.
type runner struct {
	inst    instance
	workers int
	label   string
	out     io.Writer
	log     io.Writer

	attempted, failed int
	clocks            [2]int64 // sim and comm cycles of the first good solve
	haveClocks        bool
}

// one runs a single solve and checks it. Everything outside the probe's
// start/stop marks — GC, memory statistics, the reference check — is
// outside the timed region.
func (s *runner) one(traced bool) (*probe, *outcome, sample, bool) {
	runtime.GC()
	var ms0, ms1, ms2 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	pr := newProbe(traced)
	o, err := s.inst.solve(s.workers, pr)
	runtime.ReadMemStats(&ms1)
	s.attempted++
	if err == nil {
		err = s.inst.check(o)
	}
	if err == nil {
		err = s.sameClocks(o)
	}
	if err != nil {
		s.failed++
		fmt.Fprintf(s.log, "%s: solve %d failed: %v\n", s.label, s.attempted, err)
		return pr, nil, sample{}, false
	}
	runtime.GC()
	runtime.ReadMemStats(&ms2)
	runtime.KeepAlive(o)
	return pr, o, sample{
		total: pr.total(), setup: pr.setup, iters: o.iters,
		alloc: ms1.TotalAlloc - ms0.TotalAlloc, live: ms2.HeapAlloc,
	}, true
}

// sameClocks holds the simulated clocks to the first solve's: they are
// a deterministic output of the program, like the grid.
func (s *runner) sameClocks(o *outcome) error {
	c := [2]int64{o.simCycles, o.commCycles}
	if !s.haveClocks {
		s.clocks, s.haveClocks = c, true
		return nil
	}
	if c != s.clocks {
		return fmt.Errorf("simulated clocks %v differ from the first solve's %v", c, s.clocks)
	}
	return nil
}

// measure discards one warm-up solve, then runs solves back to back
// until the budget is spent and reports the end-to-end metrics.
func (s *runner) measure(budget time.Duration) map[string]metric {
	s.one(false)
	var ss []sample
	deadline := time.Now().Add(budget)
	for s.attempted < 2 || time.Now().Before(deadline) {
		if _, _, sm, ok := s.one(false); ok {
			ss = append(ss, sm)
		}
	}
	if len(ss) == 0 {
		return nil
	}
	col := func(f func(sample) float64) []float64 {
		v := make([]float64, len(ss))
		for i, sm := range ss {
			v[i] = f(sm)
		}
		return v
	}
	m := map[string]metric{
		"time_to_solution_s": {quantile(col(func(x sample) float64 { return x.total.Seconds() }), 0.5), "s"},
		"setup_s":            {quantile(col(func(x sample) float64 { return x.setup.Seconds() }), 0.5), "s"},
		"iters_per_s": {quantile(col(func(x sample) float64 {
			return float64(x.iters) / (x.total - x.setup).Seconds()
		}), 0.5), "1/s"},
		"alloc_mb":     {quantile(col(func(x sample) float64 { return float64(x.alloc) / 1e6 }), 0.5), "MB"},
		"live_heap_mb": {quantile(col(func(x sample) float64 { return float64(x.live) / 1e6 }), 0.5), "MB"},
		"sim_cycles":   {float64(s.clocks[0]), "cycles"},
		"comm_cycles":  {float64(s.clocks[1]), "cycles"},
	}
	tts := col(func(x sample) float64 { return x.total.Seconds() })
	fmt.Fprintf(s.out, "%s: %d timed solves; time_to_solution_s p25=%.4f p50=%.4f p75=%.4f max=%.4f\n",
		s.label, len(ss), quantile(tts, 0.25), quantile(tts, 0.5), quantile(tts, 0.75), quantile(tts, 1))
	return m
}

// measureTraced alternates untraced and traced solves after a warm-up,
// replays the setup three times, and reports per-layer metrics: layer
// self-times are means over the traced solves, so they add up; the
// untraced median is what they must account for.
func (s *runner) measureTraced(budget time.Duration) map[string]metric {
	_, multigridRun := s.inst.(*multigridCase)
	s.one(false)
	var rs []*replayTimes
	for i := 0; i < 3; i++ {
		rt, err := s.inst.replay(s.workers)
		if err != nil {
			s.attempted++
			s.failed++
			fmt.Fprintf(s.log, "%s: setup replay failed: %v\n", s.label, err)
			return nil
		}
		rs = append(rs, rt)
	}
	rt := medianReplay(rs)
	runtime.GC()

	var plain, traced []float64
	sums := map[string]float64{}
	var last *outcome
	var lastProbe *probe
	deadline := time.Now().Add(budget)
	for i := 0; len(plain) == 0 || len(traced) == 0 || time.Now().Before(deadline); i++ {
		if s.attempted > 2*(len(plain)+len(traced))+2 {
			break // failing solves: stop rather than spin
		}
		isTraced := i%2 == 1
		pr, o, sm, ok := s.one(isTraced)
		if !ok {
			continue
		}
		if !isTraced {
			plain = append(plain, sm.total.Seconds())
			continue
		}
		traced = append(traced, sm.total.Seconds())
		for k, v := range attribute(pr, rt, o.iters, multigridRun) {
			sums[k] += v
		}
		last, lastProbe = o, pr
	}
	if last == nil || len(plain) == 0 {
		return nil
	}

	m := map[string]metric{}
	var accounted float64
	for k, v := range sums {
		m[k] = metric{v / float64(len(traced)), "s"}
		accounted += v / float64(len(traced))
	}
	untraced := quantile(plain, 0.5)
	unattributed := untraced - accounted
	m["trace.unattributed_s"] = metric{unattributed, "s"}
	m["trace.unattributed_share"] = metric{unattributed / untraced, "ratio"}
	m["trace.overhead"] = metric{quantile(traced, 0.5) / untraced, "ratio"}
	if math.Abs(unattributed) > accountTolerance*untraced {
		fmt.Fprintf(s.log, "%s: layers leave %.1f%% of time_to_solution_s unattributed (tolerance %.0f%%)\n",
			s.label, 100*unattributed/untraced, 100*accountTolerance)
	}

	for k, v := range s.counters(last, lastProbe, rt, multigridRun) {
		m[k] = v
	}
	fmt.Fprintf(s.out, "%s: %d untraced + %d traced solves; untraced time_to_solution_s p50=%.4f, layers account for %.4f s (tolerance ±%.0f%%)\n",
		s.label, len(plain), len(traced), untraced, accounted, 100*accountTolerance)
	return m
}

// counters are the per-layer work counts of the last traced solve; the
// simulated ones repeat exactly from solve to solve. On the resilient
// workload, hypercube.cycles_lost needs one extra clean solve of the
// same F, checked like every other.
func (s *runner) counters(o *outcome, pr *probe, rt *replayTimes, multigridRun bool) map[string]metric {
	var fast, slow int64
	for _, nd := range o.nodes {
		ks := nd.KernelStatsOf()
		fast += ks.Fast
		slow += ks.Slow
	}
	lookups := o.plans.Hits + o.plans.Misses
	count := func(v int64) metric { return metric{float64(v), "count"} }
	m := map[string]metric{
		"editor.docs":                count(int64(rt.docs)),
		"editor.alloc_mb":            {float64(rt.editorAlloc) / 1e6, "MB"},
		"codegen.instrs":             count(int64(rt.instrs)),
		"sim.plans_compiled":         count(int64(o.plans.Entries)),
		"sim.plan_hit_ratio":         {ratio(o.plans.Hits, lookups), "ratio"},
		"sim.exec_warm_us":           {float64(rt.execWarm) / 1e3, "us"},
		"sim.kernel_fast":            count(fast),
		"sim.kernel_slow":            count(slow),
		"sim.kernel_fast_ratio":      {ratio(fast, fast+slow), "ratio"},
		"engine.dispatch_cycles":     {float64(pr.cycles["dispatch"]), "cycles"},
		"engine.exchange_cycles":     {float64(pr.cycles["exchange"]), "cycles"},
		"engine.combine_cycles":      {float64(pr.cycles["combine"]), "cycles"},
		"engine.retries":             count(o.faults.Retries),
		"hypercube.checkpoint_bytes": {float64(pr.ckBytes), "bytes"},
		"hypercube.recoveries":       count(o.recovery.Recoveries),
		"hypercube.resweeps":         count(o.recovery.ResweptSweeps),
		"hypercube.cycles_lost":      {0, "cycles"},
		"multigrid.vcycles":          count(0),
	}
	if multigridRun {
		m["multigrid.vcycles"] = count(int64(o.iters))
	}
	if c, ok := s.inst.(*jacobiCase); ok && c.resilient {
		base := &jacobiCase{seed: c.seed, global: c.global, ref: c.ref}
		clean, err := base.solve(s.workers, newProbe(false))
		if err == nil {
			err = base.check(clean)
		}
		s.attempted++
		if err != nil {
			s.failed++
			fmt.Fprintf(s.log, "%s: clean baseline solve failed: %v\n", s.label, err)
		} else {
			m["hypercube.cycles_lost"] = metric{float64(o.simCycles - clean.simCycles), "cycles"}
		}
	}
	return m
}

// report prints every metric by name and unit, the error rate, and
// last the JSON record.
func (s *runner) report(metrics map[string]metric) error {
	names := make([]string, 0, len(metrics))
	for k := range metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(s.out, "%s: %-32s %.6g %s\n", s.label, k, metrics[k].Value, metrics[k].Unit)
	}
	fmt.Fprintf(s.out, "%s: %-32s %.6g ratio (%d failed of %d attempted)\n",
		s.label, "error_rate", ratio(int64(s.failed), int64(s.attempted)), s.failed, s.attempted)
	if metrics == nil {
		metrics = map[string]metric{}
	}
	rec, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{s.failed == 0 && s.attempted > 0, s.attempted, s.failed, metrics})
	if err != nil {
		return fmt.Errorf("encoding the record: %w", err)
	}
	fmt.Fprintln(s.out, string(rec))
	return nil
}

// quantile interpolates linearly between order statistics (q in [0,1]).
func quantile(v []float64, q float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
