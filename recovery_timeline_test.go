package repro_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/hypercube"
	"repro/internal/multigrid"
	"repro/internal/obs"
)

// timelineSolve is one recovery-timeline case: a solver run on a
// four-node hypercube with the obs layer armed, under an optional
// fault plan and spare pool.
type timelineSolve func(t *testing.T, plan *hypercube.FaultPlan, spares int) *obs.Obs

func timelineJacobi(t *testing.T, plan *hypercube.FaultPlan, spares int) *obs.Obs {
	t.Helper()
	m, err := hypercube.New(chaosCfg(), 2)
	if err != nil {
		t.Fatal(err)
	}
	m.Workers = 4
	m.StopAfter = 8
	m.Faults = plan
	if err := m.AddSpares(spares); err != nil {
		t.Fatal(err)
	}
	o := obs.New()
	m.Obs = o
	if _, err := m.SolveJacobi(chaosProblem(m.P())); err != nil {
		t.Fatal(err)
	}
	return o
}

func timelineMultigrid(t *testing.T, plan *hypercube.FaultPlan, spares int) *obs.Obs {
	t.Helper()
	m, err := hypercube.New(chaosCfg(), 2)
	if err != nil {
		t.Fatal(err)
	}
	m.Workers = 4
	if err := m.AddSpares(spares); err != nil {
		t.Fatal(err)
	}
	o := obs.New()
	m.Obs = o
	m.ArmObs()
	d, err := multigrid.NewDistributed(multigrid.DistConfig{
		Fabric: m.Fabric(), Cfg: chaosCfg(), N: 17, Levels: 2, Tol: 1e-6, MaxCycles: 100,
		Workers: m.Workers, Faults: plan, Obs: o,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Run(); err != nil {
		t.Fatal(err)
	}
	return o
}

// TestRecoveryTimeline runs both solvers through a permanent node loss,
// absorbed by a hot spare and by a shrinking re-partition. The engine's
// span timeline on tracer shard 0 is the accumulated simulated critical
// path, so it must never run backwards across the recovery; and the
// run's engine counters must be the fault-free run's plus exactly the
// recovery's own: one more loop topology, the dead rank, and (Jacobi)
// the recovery round, its mode and its state source.
func TestRecoveryTimeline(t *testing.T) {
	cases := []struct {
		name   string
		solve  timelineSolve
		sweep  int
		spares int
		// recovery is the counters the recovery adds on top of the
		// fault-free run, besides engine.topology and dead_ranks.
		recovery map[string]int64
	}{
		{"jacobi/spare", timelineJacobi, 3, 1, map[string]int64{
			"engine.recovery.recoveries": 1, "engine.recovery.spare": 1, "engine.recovery.source.buddy": 1}},
		{"jacobi/shrink", timelineJacobi, 3, 0, map[string]int64{
			"engine.recovery.recoveries": 1, "engine.recovery.shrink": 1, "engine.recovery.source.buddy": 1}},
		{"multigrid/spare", timelineMultigrid, 10, 1, nil},
		{"multigrid/shrink", timelineMultigrid, 10, 0, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			clean := tc.solve(t, nil, 0).Reg.Totals()
			o := tc.solve(t, hypercube.MustFaultPlan(hypercube.FaultEvent{
				Sweep: tc.sweep, Phase: hypercube.PhaseDispatch, Rank: 1, Kind: hypercube.FaultKillForever,
			}), tc.spares)

			last, spans := int64(-1), 0
			for _, sp := range o.Tr.Spans() {
				if sp.Cat != "engine" {
					continue
				}
				if sp.TS < last {
					t.Fatalf("engine span %s at ts %d follows ts %d: the timeline restarted", sp.Name, sp.TS, last)
				}
				last = sp.TS
				spans++
			}
			if spans == 0 {
				t.Fatal("no engine spans recorded")
			}

			got := o.Reg.Totals()
			want := map[string]int64{
				"engine.topology.hypercube":  clean["counter/engine.topology.hypercube"] + 1,
				"engine.recovery.dead_ranks": 1,
			}
			for k, v := range tc.recovery {
				want[k] = v
			}
			for k, v := range got {
				name, ok := strings.CutPrefix(k, "counter/")
				if !ok || !strings.HasPrefix(name, "engine.") {
					continue
				}
				if strings.HasPrefix(name, "engine.phase.") {
					// Recovery replays work, so phases only ever add up.
					if v < clean[k] {
						t.Errorf("%s = %d, fault-free run has %d", k, v, clean[k])
					}
					continue
				}
				if v != want[name] {
					t.Errorf("%s = %d, want %d", k, v, want[name])
				}
				delete(want, name)
			}
			for name, v := range want {
				t.Errorf("counter/%s missing, want %d", name, v)
			}
		})
	}
}

// TestJacobiObservePhaseOrder pins the full Observe stream of a Jacobi
// solve that rolls back once (a retry budget exhausted at sweep 3
// restores the sweep-2 checkpoint) and then loses a rank for good at
// sweep 4 (a hot spare takes over from the buddy mirror). Layer
// attribution in benchmarks keys on this order: checkpoint, buddy
// mirror, dispatch, combine, exchange per sweep, no checkpoint on a
// resumed boundary, and the dying dispatch still reported.
func TestJacobiObservePhaseOrder(t *testing.T) {
	m, err := hypercube.New(chaosCfg(), 2)
	if err != nil {
		t.Fatal(err)
	}
	m.StopAfter = 6
	m.CheckpointEvery = 2
	m.Faults = hypercube.MustFaultPlan(
		hypercube.FaultEvent{Sweep: 3, Phase: hypercube.PhaseDispatch, Rank: 1, Kind: hypercube.FaultKill, Repeat: 3},
		hypercube.FaultEvent{Sweep: 4, Phase: hypercube.PhaseDispatch, Rank: 2, Kind: hypercube.FaultKillForever},
	)
	if err := m.AddSpares(1); err != nil {
		t.Fatal(err)
	}
	var got []string
	m.Observe = func(phase string, sweep int, cycles int64) {
		got = append(got, fmt.Sprintf("%s/%d/%d", phase, sweep, cycles))
	}
	res, err := m.SolveJacobi(chaosProblem(m.P()))
	if err != nil {
		t.Fatal(err)
	}
	if res.Faults.Restores != 1 || res.Recovery.Recoveries != 1 {
		t.Fatalf("faults %+v, recovery %s: want one restore and one recovery", res.Faults, res.Recovery)
	}
	want := "checkpoint/0/0 buddy/0/0 dispatch/0/488 combine/0/18 exchange/0/144 " +
		"buddy/1/0 dispatch/1/488 combine/1/18 exchange/1/144 " +
		"checkpoint/2/0 buddy/2/0 dispatch/2/488 combine/2/18 exchange/2/144 " +
		"buddy/3/0 dispatch/3/488 " + // rank 1 exhausts its budget: roll back to sweep 2
		"buddy/2/0 dispatch/2/488 combine/2/18 exchange/2/144 " +
		"buddy/3/0 dispatch/3/488 combine/3/18 exchange/3/144 " +
		"checkpoint/4/0 buddy/4/0 dispatch/4/488 " + // rank 2 dies: a spare resumes sweep 4
		"buddy/4/0 dispatch/4/488 combine/4/18 exchange/4/144 " +
		"buddy/5/0 dispatch/5/488 combine/5/18"
	if s := strings.Join(got, " "); s != want {
		t.Errorf("Observe stream:\n got %s\nwant %s", s, want)
	}
}
