package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/hypercube"
)

// TestSimClockSentinels pins the simulated clocks and iteration counts
// of every workload at seed 1. They must repeat exactly from solve to
// solve and at one and two workers, and no change may move them: they
// are part of the bit-exact solver contract, like the grids.
func TestSimClockSentinels(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full-size solves")
	}
	type clocks struct {
		iters     int
		sim, comm int64
	}
	want := map[string]clocks{
		"jacobi-converge":  {170, 409852, 5630796},
		"jacobi-resilient": {170, 414212, 5633132},
		"multigrid-vcycle": {44, 5935908, 5970932},
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			inst, err := w.prepare(1)
			if err != nil {
				t.Fatal(err)
			}
			for rep, workers := range []int{2, 2, 1} {
				o, err := inst.solve(workers, newProbe(false))
				if err != nil {
					t.Fatalf("rep %d, workers %d: %v", rep, workers, err)
				}
				if err := inst.check(o); err != nil {
					t.Fatalf("rep %d, workers %d: %v", rep, workers, err)
				}
				if got := (clocks{o.iters, o.simCycles, o.commCycles}); got != want[w.name] {
					t.Errorf("rep %d, workers %d: iters/sim/comm = %+v, want %+v", rep, workers, got, want[w.name])
				}
			}
		})
	}
}

// TestSeededInputs checks that the seed changes the inputs but not the
// workload's shape: grid, mask, tolerance, trajectory length, and the
// number and kinds of faults.
func TestSeededInputs(t *testing.T) {
	a, b := jacobiProblem(1), jacobiProblem(2)
	if reflect.DeepEqual(a.F, b.F) {
		t.Error("seeds 1 and 2 drew the same right-hand side")
	}
	if !reflect.DeepEqual(a.F, jacobiProblem(1).F) {
		t.Error("seed 1 drew two different right-hand sides")
	}
	if a.N != b.N || a.Nz != b.Nz || a.Tol != b.Tol || a.MaxIter != b.MaxIter ||
		!reflect.DeepEqual(a.Mask, b.Mask) || !reflect.DeepEqual(a.U0, b.U0) {
		t.Error("seeds 1 and 2 drew different problem shapes")
	}
	if ra, rb := a.Reference(), b.Reference(); ra.Iters != rb.Iters || !ra.Converged || !rb.Converged {
		t.Errorf("reference sweeps %d (converged %v) vs %d (%v), want equal and converged",
			ra.Iters, ra.Converged, rb.Iters, rb.Converged)
	}

	pa, err := faultPlan(1)
	if err != nil {
		t.Fatal(err)
	}
	pb, err := faultPlan(2)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(pa.Events, pb.Events) {
		t.Error("seeds 1 and 2 drew the same fault plan")
	}
	shape := func(p *hypercube.FaultPlan) map[hypercube.FaultKind]int {
		kinds := map[hypercube.FaultKind]int{}
		for _, ev := range p.Events {
			kinds[ev.Kind]++
			switch {
			case ev.Kind == hypercube.FaultKillForever && (ev.Sweep < killLo || ev.Sweep >= killLo+killSpan):
				t.Errorf("permanent kill at sweep %d, outside [%d, %d)", ev.Sweep, killLo, killLo+killSpan)
			case ev.Kind != hypercube.FaultKillForever && ev.Sweep >= transientSweeps:
				t.Errorf("transient fault at sweep %d, past %d", ev.Sweep, transientSweeps)
			}
		}
		return kinds
	}
	if ka, kb := shape(pa), shape(pb); !reflect.DeepEqual(ka, kb) || ka[hypercube.FaultKillForever] != 1 {
		t.Errorf("fault kinds %v vs %v, want equal with one permanent kill", ka, kb)
	}
}

// badInstance answers quickly and wrongly on every other solve.
type badInstance struct{ n int }

func (b *badInstance) solve(workers int, pr *probe) (*outcome, error) {
	pr.start()
	pr.observe("dispatch", 0, 1)
	pr.stop()
	b.n++
	return &outcome{u: []float64{float64(b.n % 2)}, iters: 1, series: []float64{0}, converged: true}, nil
}

func (b *badInstance) check(o *outcome) error {
	return sameSolution(o, []float64{1}, 1, []float64{0}, true)
}

func (b *badInstance) replay(int) (*replayTimes, error) { return nil, errors.New("no replay") }
func (b *badInstance) note() string                     { return "fake" }

// TestMismatchFails checks that an answer differing from the reference
// in one bit is a failed solve and makes the record incorrect.
func TestMismatchFails(t *testing.T) {
	ref := []float64{1, 2, 3}
	flipped := append([]float64(nil), ref...)
	flipped[1] = math.Float64frombits(math.Float64bits(flipped[1]) ^ 1)
	good := &outcome{u: ref, iters: 3, series: ref, converged: true}
	if err := sameSolution(good, ref, 3, ref, true); err != nil {
		t.Fatalf("identical answer rejected: %v", err)
	}
	for name, o := range map[string]*outcome{
		"grid":   {u: flipped, iters: 3, series: ref, converged: true},
		"series": {u: ref, iters: 3, series: flipped, converged: true},
		"iters":  {u: ref, iters: 4, series: ref, converged: true},
		"flag":   {u: ref, iters: 3, series: ref},
	} {
		if sameSolution(o, ref, 3, ref, true) == nil {
			t.Errorf("%s mismatch accepted", name)
		}
	}

	var out, log bytes.Buffer
	s := &runner{inst: &badInstance{}, workers: 1, label: "fake", out: &out, log: &log}
	if err := s.report(s.measure(time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var rec struct {
		Correct           bool
		Attempted, Failed int
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rec); err != nil {
		t.Fatalf("last line is not a JSON record: %v", err)
	}
	if rec.Correct || rec.Failed == 0 || rec.Attempted <= rec.Failed {
		t.Errorf("record %+v, want incorrect with some failed solves", rec)
	}
	if code := run([]string{"-workload", "nope"}, &out, &log); code == 0 {
		t.Error("unknown workload exited 0")
	}
}
