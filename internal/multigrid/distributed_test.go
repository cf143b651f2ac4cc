package multigrid

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/codegen"
	"repro/internal/diag"
	"repro/internal/diagram"
	"repro/internal/editor"
	"repro/internal/engine"
	"repro/internal/hypercube"
	"repro/internal/microcode"
)

// The distributed V-cycle must reproduce the single-node solver's
// trajectory bit for bit: same V-cycle count, same residual after
// every cycle, same final field — at every hypercube size and worker
// count, with either halo schedule.

func distRef(t *testing.T, cfg arch.Config, n, levels int, tol float64, maxCycles int) *Result {
	t.Helper()
	s, err := New(cfg, n, levels, tol, maxCycles)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestDistributedMatchesSingleNode(t *testing.T) {
	cfg := arch.Default()
	const (
		n         = 17
		levels    = 3
		tol       = 1e-6
		maxCycles = 100
	)
	ref := distRef(t, cfg, n, levels, tol, maxCycles)
	for _, dim := range []int{0, 1, 2, 3} {
		for _, workers := range []int{1, 4} {
			m, err := hypercube.New(cfg, dim)
			if err != nil {
				t.Fatal(err)
			}
			d, err := NewDistributed(DistConfig{
				Fabric: m.Fabric(), Cfg: cfg,
				N: n, Levels: levels, Tol: tol, MaxCycles: maxCycles,
				Workers: workers,
			})
			if err != nil {
				t.Fatal(err)
			}
			res, err := d.Run()
			if err != nil {
				t.Fatalf("P=%d workers=%d: %v", m.P(), workers, err)
			}
			if res.VCycles != ref.VCycles || !res.Converged {
				t.Fatalf("P=%d workers=%d: %d V-cycles (converged=%v), single-node %d",
					m.P(), workers, res.VCycles, res.Converged, ref.VCycles)
			}
			if len(res.ResidualSeries) != len(ref.ResidualSeries) {
				t.Fatalf("P=%d workers=%d: series %d entries, single-node %d",
					m.P(), workers, len(res.ResidualSeries), len(ref.ResidualSeries))
			}
			for i := range ref.ResidualSeries {
				if res.ResidualSeries[i] != ref.ResidualSeries[i] {
					t.Fatalf("P=%d workers=%d: residual[%d] = %g, single-node %g",
						m.P(), workers, i, res.ResidualSeries[i], ref.ResidualSeries[i])
				}
			}
			for g := range ref.U {
				if res.U[g] != ref.U[g] {
					t.Fatalf("P=%d workers=%d: u[%d] = %g, single-node %g",
						m.P(), workers, g, res.U[g], ref.U[g])
				}
			}
			if m.MachineCycles == 0 || (m.P() > 1 && m.CommCycles == 0) {
				t.Errorf("P=%d: clocks not charged (machine=%d comm=%d)",
					m.P(), m.MachineCycles, m.CommCycles)
			}
		}
	}
}

// TestDistributedUnevenSlabs: 8 ranks over 15 interior planes forces
// an uneven partition (seven 2-plane slabs plus one 1-plane slab); the
// trajectory must still match the single node bit for bit — covered by
// the dim=3 case above, so here we just pin the partition shape.
func TestDistributedUnevenSlabs(t *testing.T) {
	cfg := arch.Default()
	m, err := hypercube.New(cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDistributed(DistConfig{
		Fabric: m.Fabric(), Cfg: cfg,
		N: 17, Levels: 2, Tol: 1e-6, MaxCycles: 1, Workers: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if (d.Part.Nz-2)%d.Part.P == 0 {
		t.Fatal("15 planes over 8 ranks should be uneven")
	}
	total := 0
	for r := 0; r < 8; r++ {
		total += d.Part.Planes[r]
	}
	if total != 15 {
		t.Fatalf("slabs cover %d planes, want 15", total)
	}
}

func TestDistributedRejectsBadShapes(t *testing.T) {
	cfg := arch.Default()
	m, err := hypercube.New(cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewDistributed(DistConfig{Fabric: m.Fabric(), Cfg: cfg, N: 5, Levels: 1, Tol: 1e-6, MaxCycles: 1}); err == nil {
		t.Error("3 interior planes over 4 ranks accepted")
	}
	if _, err := NewDistributed(DistConfig{Cfg: cfg, N: 17, Levels: 2, Tol: 1e-6, MaxCycles: 1}); err == nil {
		t.Error("nil fabric accepted")
	}
	if _, err := NewDistributed(DistConfig{Fabric: m.Fabric(), Cfg: cfg, N: 17, Levels: 0, Tol: 1e-6, MaxCycles: 1}); err == nil {
		t.Error("zero levels accepted")
	}
	// A fault aimed past the ring can never fire: a typed R040 error.
	plan := engine.MustFaultPlan(engine.FaultEvent{Sweep: 1, Phase: engine.PhaseExchange, Rank: 3, Kind: engine.FaultKill})
	_, err = NewDistributed(DistConfig{Fabric: m.Fabric(), Cfg: cfg, N: 17, Levels: 2, Tol: 1e-6, MaxCycles: 1, Faults: plan})
	if got := diag.AsDiagnostic(err, "").Rule; err == nil || got != diag.RuleFaultPlan {
		t.Errorf("out-of-range exchange pair: %v (rule %q)", err, got)
	}
}

// TestDistributedPermanentKillRecovers: a rank dies mid-V-cycle; the
// driver repairs the ring (hot spare or shrinking re-partition),
// restores the cycle-boundary mirror and replays the cycle. The
// trajectory must stay bit-identical to the fault-free run, with
// deterministic clocks across worker counts.
func TestDistributedPermanentKillRecovers(t *testing.T) {
	cfg := arch.Default()
	const (
		n         = 17
		levels    = 3
		tol       = 1e-6
		maxCycles = 100
	)
	ref := distRef(t, cfg, n, levels, tol, maxCycles)
	kill := func() *engine.FaultPlan {
		return engine.MustFaultPlan(engine.FaultEvent{
			Sweep: 10, Phase: engine.PhaseDispatch, Rank: 1, Kind: engine.FaultKillForever})
	}
	for _, spares := range []int{0, 1} {
		solve := func(workers int) (*DistResult, *hypercube.Machine) {
			m, err := hypercube.New(cfg, 2)
			if err != nil {
				t.Fatal(err)
			}
			if spares > 0 {
				if err := m.AddSpares(spares); err != nil {
					t.Fatal(err)
				}
			}
			d, err := NewDistributed(DistConfig{
				Fabric: m.Fabric(), Cfg: cfg,
				N: n, Levels: levels, Tol: tol, MaxCycles: maxCycles,
				Workers: workers, Faults: kill(),
			})
			if err != nil {
				t.Fatal(err)
			}
			res, err := d.Run()
			if err != nil {
				t.Fatalf("spares=%d workers=%d: recovered solve failed: %v", spares, workers, err)
			}
			return res, m
		}
		res, m := solve(4)
		if res.VCycles != ref.VCycles || !res.Converged {
			t.Fatalf("spares=%d: %d V-cycles, fault-free %d", spares, res.VCycles, ref.VCycles)
		}
		for i := range ref.ResidualSeries {
			if res.ResidualSeries[i] != ref.ResidualSeries[i] {
				t.Fatalf("spares=%d: residual[%d] = %g, fault-free %g",
					spares, i, res.ResidualSeries[i], ref.ResidualSeries[i])
			}
		}
		for g := range ref.U {
			if res.U[g] != ref.U[g] {
				t.Fatalf("spares=%d: u[%d] = %g, fault-free %g", spares, g, res.U[g], ref.U[g])
			}
		}
		r := res.Recovery
		if r.Recoveries != 1 || r.DeadRanks != 1 || r.BuddyRestores != 1 || r.ResweptSweeps != 1 {
			t.Fatalf("spares=%d: recovery stats %s", spares, r)
		}
		lv := m.Liveness()
		if spares > 0 {
			if r.SpareActivations != 1 || lv.Live != 4 || lv.SparesUsed != 1 {
				t.Fatalf("spare accounting: %s, liveness %+v", r, lv)
			}
		} else if r.Shrinks != 1 || lv.Live != 3 {
			t.Fatalf("shrink accounting: %s, liveness %+v", r, lv)
		}
		// Recovery clocks are pure functions of the seeded plan.
		again, m1 := solve(1)
		if again.Recovery != res.Recovery {
			t.Fatalf("spares=%d: recovery stats differ across workers: %s vs %s", spares, again.Recovery, res.Recovery)
		}
		if m1.MachineCycles != m.MachineCycles || m1.CommCycles != m.CommCycles {
			t.Fatalf("spares=%d: recovered clocks differ across workers: %d/%d vs %d/%d",
				spares, m1.MachineCycles, m1.CommCycles, m.MachineCycles, m.CommCycles)
		}
	}
}

// TestDistributedTotalsCountEveryBoard: the FLOP total of a recovered
// solve sums every board that ran work — the board that died and, with
// a spare, its replacement — not just the live ring, and the plan-cache
// total is the plan store all of those boards share.
func TestDistributedTotalsCountEveryBoard(t *testing.T) {
	cfg := arch.Default()
	for _, spares := range []int{0, 1} {
		m, err := hypercube.New(cfg, 2)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.AddSpares(spares); err != nil {
			t.Fatal(err)
		}
		boards := slices.Concat(m.Nodes, m.Spares)
		d, err := NewDistributed(DistConfig{
			Fabric: m.Fabric(), Cfg: cfg,
			N: 17, Levels: 3, Tol: 1e-6, MaxCycles: 100, Workers: 4,
			Faults: engine.MustFaultPlan(engine.FaultEvent{
				Sweep: 10, Phase: engine.PhaseDispatch, Rank: 1, Kind: engine.FaultKillForever}),
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := d.Run()
		if err != nil {
			t.Fatal(err)
		}
		if res.Recovery.Recoveries != 1 {
			t.Fatalf("spares=%d: recovery stats %s, want one recovery", spares, res.Recovery)
		}
		var flops int64
		plans := m.Nodes[0].Store().Stats()
		for _, nd := range boards {
			flops += nd.Stats.FLOPs
			if nd.Store() != m.Nodes[0].Store() {
				t.Fatalf("spares=%d: a board is not built over the machine's plan store", spares)
			}
		}
		if res.TotalFLOPs != flops || res.PlanCache != plans {
			t.Errorf("spares=%d: totals %d FLOPs, plan cache %+v; the boards executed %d FLOPs, store holds %+v",
				spares, res.TotalFLOPs, res.PlanCache, flops, plans)
		}
	}
}

// TestDistributedTransientChaos: a seeded mix of transient kills, link
// corruptions and stalls retries through the engine loop and leaves
// the trajectory bit-identical; the injected work is counted.
func TestDistributedTransientChaos(t *testing.T) {
	cfg := arch.Default()
	ref := distRef(t, cfg, 17, 3, 1e-6, 100)
	m, err := hypercube.New(cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDistributed(DistConfig{
		Fabric: m.Fabric(), Cfg: cfg,
		N: 17, Levels: 3, Tol: 1e-6, MaxCycles: 100, Workers: 4,
		Faults: engine.RandomChaosPlan(7, 30, 4, 6),
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := d.Run()
	if err != nil {
		t.Fatalf("chaos solve failed: %v", err)
	}
	if res.VCycles != ref.VCycles {
		t.Fatalf("%d V-cycles, fault-free %d", res.VCycles, ref.VCycles)
	}
	for g := range ref.U {
		if res.U[g] != ref.U[g] {
			t.Fatalf("u[%d] = %g, fault-free %g", g, res.U[g], ref.U[g])
		}
	}
	if res.Faults.Injected == 0 || res.Recovery.Recoveries != 0 {
		t.Fatalf("fault accounting: %s / %s", res.Faults, res.Recovery)
	}
}

// TestDistributedBudgetExhaustionSurfaces: a transient fault that
// outlives the retry budget is fatal here — the distributed driver has
// no sweep-boundary rollback, and a wrong answer is worse than an
// error.
func TestDistributedBudgetExhaustionSurfaces(t *testing.T) {
	cfg := arch.Default()
	m, err := hypercube.New(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDistributed(DistConfig{
		Fabric: m.Fabric(), Cfg: cfg,
		N: 17, Levels: 2, Tol: 1e-6, MaxCycles: 10, Workers: 1,
		Faults: engine.MustFaultPlan(engine.FaultEvent{
			Sweep: 2, Phase: engine.PhaseDispatch, Rank: 0, Kind: engine.FaultKill, Repeat: 9}),
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Run(); err == nil {
		t.Fatal("exhausted retry budget did not fail the solve")
	}
}

// TestDistributedLevelsMatchPerRankCodegen: every rank's slab level —
// and every level of the coarse chain — holds the same five
// instructions a private generator produces from that level's own
// editor documents, although equal slabs now share one cached compile.
func TestDistributedLevelsMatchPerRankCodegen(t *testing.T) {
	cfg := arch.Default()
	const tol = 1e-6
	m, err := hypercube.New(cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDistributed(DistConfig{
		Fabric: m.Fabric(), Cfg: cfg, N: 33, Levels: 3, Tol: tol, MaxCycles: 1, Workers: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if (d.Part.Nz-2)%d.Part.P == 0 {
		t.Fatal("31 planes over 8 ranks should be uneven")
	}
	inv := arch.MustInventory(cfg)
	levels := append(append([]*Level(nil), d.slabs...), d.coarse.Levels...)
	for i, lv := range levels {
		gen := codegen.New(inv)
		doc, _, err := lv.P.BuildDocument(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ed := editor.New(inv, "mg-aux")
		if _, err := ed.ExecScript(strings.NewReader(auxScript(lv.P, tol)), false); err != nil {
			t.Fatal(err)
		}
		for j, c := range []struct {
			got  *microcode.Instr
			doc  *diagram.Document
			pipe int
		}{
			{lv.fwd, doc, 0}, {lv.bwd, doc, 1},
			{lv.residual, ed.Doc, 0}, {lv.correct, ed.Doc, 1}, {lv.copyVU, ed.Doc, 2},
		} {
			want, _, err := gen.Pipeline(c.doc, c.doc.Pipes[c.pipe])
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(c.got.W, want.W) {
				t.Errorf("level %d instruction %d: words differ from Generator.Pipeline", i, j)
			}
		}
	}
}
