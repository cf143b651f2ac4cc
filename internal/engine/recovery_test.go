package engine

import (
	"errors"
	"slices"
	"strings"
	"testing"

	"repro/internal/diag"
	"repro/internal/microcode"
	"repro/internal/obs"
	"repro/internal/sim"
)

func TestKillForeverPlanValidation(t *testing.T) {
	// A node dies, not a message: only the dispatch phase is legal.
	for _, ph := range []Phase{PhaseExchange, PhaseMerge} {
		if _, err := NewFaultPlan(FaultEvent{Sweep: 1, Phase: ph, Rank: 0, Kind: FaultKillForever}); err == nil {
			t.Errorf("kill-forever accepted on %s phase", ph)
		}
	}
	// A dead node cannot die twice: Repeat is forced to one firing.
	plan, err := NewFaultPlan(FaultEvent{Sweep: 1, Phase: PhaseDispatch, Rank: 0, Kind: FaultKillForever, Repeat: 5})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Events[0].Repeat != 1 {
		t.Errorf("kill-forever repeat = %d, want 1", plan.Events[0].Repeat)
	}
	if plan.Events[0].Kind.String() != "kill-forever" {
		t.Errorf("kind renders as %q", plan.Events[0].Kind)
	}

	var nilPlan *FaultPlan
	if nilPlan.HasPermanent() {
		t.Error("nil plan reports permanent faults")
	}
	if MustFaultPlan(FaultEvent{Sweep: 1, Phase: PhaseDispatch, Kind: FaultKill}).HasPermanent() {
		t.Error("transient-only plan reports permanent faults")
	}
	if !plan.HasPermanent() {
		t.Error("kill-forever plan not reported as permanent")
	}
}

// TestParseFaultPlanDiagnostics: every parse failure is a typed
// diagnostic under the fault-plan rule, quoting the offending token and
// the grammar it violated — the error is the documentation.
func TestParseFaultPlanDiagnostics(t *testing.T) {
	cases := []struct {
		spec string
		want []string // fragments the message must carry
	}{
		{"dispatch:kill", []string{`"dispatch:kill"`, "@sweep:rank"}},
		{"teleport:kill@1:0", []string{`"teleport"`, "dispatch, exchange or merge"}},
		{"dispatch:melt@1:0", []string{`"melt"`, "kill, kill-forever, corrupt or stall"}},
		{"dispatch:kill@x:0", []string{`"x"`, "not an integer", "phase:kind@sweep:rank"}},
		{"dispatch:kill@1:0:bogus=3", []string{`"bogus=3"`, "repeat= or stall="}},
		{"exchange:kill-forever@1:0", []string{"dispatch phase only"}},
		{"seed@42:sweeps=6", []string{"seed@S:sweeps=N:ranks=P:events=K"}},
	}
	for _, tc := range cases {
		_, err := ParseFaultPlan(tc.spec)
		if err == nil {
			t.Errorf("spec %q accepted", tc.spec)
			continue
		}
		var de *diag.DiagError
		if !errors.As(err, &de) {
			t.Errorf("spec %q: error %v is not a *diag.DiagError", tc.spec, err)
			continue
		}
		if de.Rule() != diag.RuleFaultPlan {
			t.Errorf("spec %q: rule %s, want %s", tc.spec, de.Rule(), diag.RuleFaultPlan)
		}
		for _, frag := range tc.want {
			if !strings.Contains(err.Error(), frag) {
				t.Errorf("spec %q: error %q does not name %q", tc.spec, err, frag)
			}
		}
	}

	// Two events aiming at one (sweep, phase, rank) point: the second
	// could never fire, so the spec is rejected with both tokens named.
	_, err := ParseFaultPlan("dispatch:kill@2:1, dispatch:stall@2:1:stall=9")
	if err == nil {
		t.Fatal("duplicate fault point accepted")
	}
	for _, frag := range []string{"duplicates", `"dispatch:kill@2:1"`, `"dispatch:stall@2:1:stall=9"`, "repeat=N"} {
		if !strings.Contains(err.Error(), frag) {
			t.Errorf("duplicate error %q does not name %q", err, frag)
		}
	}
	// The same point on different sweeps or phases is fine.
	if _, err := ParseFaultPlan("dispatch:kill@2:1, dispatch:kill@3:1, exchange:kill@2:1"); err != nil {
		t.Errorf("distinct points rejected: %v", err)
	}

	plan, err := ParseFaultPlan("dispatch:kill-forever@4:2")
	if err != nil {
		t.Fatal(err)
	}
	if ev := plan.Events[0]; ev.Kind != FaultKillForever || ev.Sweep != 4 || ev.Rank != 2 || ev.Repeat != 1 {
		t.Errorf("parsed kill-forever = %+v", ev)
	}
}

// scatterFabric is a minimal Fabric for pricing tests: unit word,
// cost = bytes·(1+hops), rank distance |from-to| hops.
type scatterFabric struct {
	p            int
	machine, com int64
}

func (f *scatterFabric) P() int                               { return f.p }
func (f *scatterFabric) Topology() string                     { return "test" }
func (f *scatterFabric) CombineHops() []int                   { return nil }
func (f *scatterFabric) Node(int) *sim.Node                   { return nil }
func (f *scatterFabric) WordBytes() int                       { return 1 }
func (f *scatterFabric) SendCost(bytes int64, hops int) int64 { return bytes * int64(1+hops) }
func (f *scatterFabric) Hops(from, to int) int {
	if from > to {
		return from - to
	}
	return to - from
}
func (f *scatterFabric) Corrupt(int, int, int64, int) error   { return nil }
func (f *scatterFabric) AddMachineCycles(c int64)             { f.machine += c }
func (f *scatterFabric) AddCommCycles(c int64)                { f.com += c }
func (f *scatterFabric) RecoverRanks([]int) (int, int, error) { return 0, 0, nil }

// TestChargeScatter: the post-recovery scatter charges every non-empty
// message to the router aggregate and only the worst one to the
// critical path — concurrent transfers, deterministic price.
func TestChargeScatter(t *testing.T) {
	f := &scatterFabric{p: 4}
	// words: rank0 free self-copy (10 words × 0 hops → cost 10), rank2
	// skipped, rank3 the worst (5 words × 4 → 20), rank1 (8 × 2 → 16).
	worst := ChargeScatter(f, []int64{10, 8, 0, 5})
	if worst != 20 {
		t.Errorf("worst message = %d, want 20", worst)
	}
	if f.machine != 20 || f.com != 10+16+20 {
		t.Errorf("clocks machine=%d comm=%d, want 20/46", f.machine, f.com)
	}
	// Zero words move nothing and charge nothing.
	f = &scatterFabric{p: 4}
	if w := ChargeScatter(f, make([]int64, 4)); w != 0 || f.machine != 0 || f.com != 0 {
		t.Errorf("empty scatter charged machine=%d comm=%d worst=%d", f.machine, f.com, w)
	}
}

func TestDeadRankErrorAndStats(t *testing.T) {
	err := &DeadRankError{Sweep: 7, Ranks: []int{1, 3}}
	for _, frag := range []string{"sweep 7", "1,3", "permanently dead"} {
		if !strings.Contains(err.Error(), frag) {
			t.Errorf("error %q does not name %q", err, frag)
		}
	}
	var s RecoveryStats
	s.Add(RecoveryStats{Recoveries: 1, DeadRanks: 2, SpareActivations: 1, Shrinks: 1,
		BuddyRestores: 1, ResweptSweeps: 3})
	s.Add(RecoveryStats{Recoveries: 1, DeadRanks: 1, CheckpointRestores: 1})
	want := "recoveries=2 dead=3 spares=1 shrinks=1 buddy=1 checkpoint=1 resweeps=3"
	if s.String() != want {
		t.Errorf("stats = %q, want %q", s, want)
	}
}

// TestLoopRecover pins the shared recovery path on the ring fabric: a
// two-plane mirror taken at boundary 2, rank 1 dying at sweep 3, then
// Recover with a hot spare (the partition is kept and only the dead
// slot is refilled) and without one (a fresh two-rank partition, every
// slab refilled). Either way every slab holds the mirrored state, the
// loop runs on, the round is counted and traced without an Observe
// sample, and the one-event plan allows no second round.
func TestLoopRecover(t *testing.T) {
	const n, nz = 4, 8 // six interior planes: 2 per rank on three ranks, 3 on two
	nn := n * n
	global := func(plane int) []float64 {
		g := make([]float64, nz*nn)
		for i := range g {
			g[i] = float64(1000*plane + i + 1)
		}
		return g
	}
	cases := []struct {
		name      string
		spares    int
		source    string
		resweeps  int64
		p         int
		stats     RecoveryStats
		comm, crt int64 // refill charge: router aggregate, critical path
	}{
		// The dead slot's two 4-plane slabs: 128 words over one hop.
		{name: "spare", spares: 1, source: "buddy", resweeps: 1, p: 3,
			stats: RecoveryStats{Recoveries: 1, DeadRanks: 1, SpareActivations: 1, BuddyRestores: 1, ResweptSweeps: 1},
			comm:  128*8 + 10, crt: 128*8 + 10},
		// Both survivors' two 5-plane slabs, 160 words each, over zero
		// hops and one.
		{name: "shrink", source: "checkpoint", resweeps: 2, p: 2,
			stats: RecoveryStats{Recoveries: 1, DeadRanks: 1, Shrinks: 1, CheckpointRestores: 1, ResweptSweeps: 2},
			comm:  160*8 + 160*8 + 10, crt: 160*8 + 10},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := newRingFabric(t, 3)
			f.spares = newRingFabric(t, tc.spares).nodes
			part, err := NewPartition(3, n, nz)
			if err != nil {
				t.Fatal(err)
			}
			for plane := 0; plane < 2; plane++ {
				if err := part.Scatter(f, plane, global(plane)); err != nil {
					t.Fatal(err)
				}
			}
			o := obs.New()
			var phases []string
			lp, err := NewLoop(&Config{Fabric: f, Part: part, Obs: o,
				Faults:  MustFaultPlan(FaultEvent{Sweep: 3, Phase: PhaseDispatch, Rank: 1, Kind: FaultKillForever}),
				Observe: func(phase string, sweep int, cycles int64) { phases = append(phases, phase) }})
			if err != nil {
				t.Fatal(err)
			}

			// The mirror holds the owned planes plus the global boundary:
			// the whole global grid.
			mr := NewMirror(n, nz, 0, 1)
			if err := mr.Take(f, part, 2, []float64{0.5, 0.25}); err != nil {
				t.Fatal(err)
			}
			for plane, g := range mr.Grids {
				if !slices.Equal(g, global(plane)) {
					t.Fatalf("mirrored plane %d %v, want %v", plane, g, global(plane))
				}
			}

			halt := func(r int) *microcode.Instr { return haltInstr(f.nodes[r]) }
			if _, err := lp.Dispatch(2, halt, 1); err != nil {
				t.Fatal(err)
			}
			var dre *DeadRankError
			if _, err := lp.Dispatch(3, halt, 1); !errors.As(err, &dre) {
				t.Fatalf("dispatch: %v, want a dead rank", err)
			}
			dead := f.nodes[1]
			for r, nd := range f.nodes { // the rebuild reloads the slabs
				for plane := 0; plane < 2; plane++ {
					if err := nd.WriteWords(plane, 0, make([]float64, part.SlabWords(r))); err != nil {
						t.Fatal(err)
					}
				}
			}
			machine, comm, observed := f.machine, f.comm, len(phases)

			var rebuilt *Partition
			if err := lp.Recover(dre, mr, tc.source, tc.resweeps, func(p *Partition) error {
				rebuilt = p
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			if rebuilt == nil || rebuilt.P != tc.p || (rebuilt == part) != (tc.spares > 0) {
				t.Fatalf("rebuild got partition %+v; want %d ranks, the old partition kept only after a spare", rebuilt, tc.p)
			}
			for r := 0; r < rebuilt.P; r++ {
				lo := (rebuilt.Lo[r] - 1) * nn
				for plane := 0; plane < 2; plane++ {
					got, err := f.nodes[r].ReadWords(plane, 0, rebuilt.SlabWords(r))
					if err != nil {
						t.Fatal(err)
					}
					if want := global(plane)[lo : lo+rebuilt.SlabWords(r)]; !slices.Equal(got, want) {
						t.Errorf("rank %d plane %d restored %v, want %v", r, plane, got, want)
					}
				}
			}
			if dc, dm := f.comm-comm, f.machine-machine; dc != tc.comm || dm != tc.crt {
				t.Errorf("refill charged comm/machine %d/%d, want %d/%d", dc, dm, tc.comm, tc.crt)
			}
			if got := lp.Recovery(); got != tc.stats {
				t.Errorf("recovery stats %s, want %s", got, tc.stats)
			}
			if nodes := lp.Nodes(); len(nodes) != tc.p+1 || nodes[tc.p] != dead {
				t.Errorf("loop nodes %d, want the %d live boards then the dead one", len(nodes), tc.p)
			}
			if len(phases) != observed {
				t.Errorf("Recover emitted Observe samples %v", phases[observed:])
			}

			// The same loop runs on over the repaired ring.
			if _, err := lp.Dispatch(3, halt, 1); err != nil {
				t.Fatal(err)
			}
			if _, err := lp.Exchange(3, 1); err != nil {
				t.Fatal(err)
			}

			totals := o.Reg.Totals()
			for key, want := range map[string]int64{
				"counter/engine.recovery.recoveries":          1,
				"counter/engine.recovery.dead_ranks":          1,
				"counter/engine.recovery." + tc.name:          1,
				"counter/engine.recovery.source." + tc.source: 1,
				"hist/engine.recovery.resweeps.sum":           tc.resweeps,
				"counter/engine.topology.ring":                2,
			} {
				if totals[key] != want {
					t.Errorf("%s = %d, want %d", key, totals[key], want)
				}
			}
			last, events := int64(0), 0
			for _, sp := range o.Tr.Spans() {
				if sp.TS < last {
					t.Errorf("%s at ts %d follows ts %d", sp.Name, sp.TS, last)
				}
				last = sp.TS
				if sp.Name == "recovery" {
					events++
					if sp.Cause != tc.name || sp.Args["resume_sweep"] != 2 {
						t.Errorf("recovery event %+v, want cause %s resuming sweep 2", sp, tc.name)
					}
				}
			}
			if events != 1 {
				t.Errorf("%d recovery events, want 1", events)
			}

			// The plan's one event is spent: a second round is refused.
			again := &DeadRankError{Sweep: 4, Ranks: []int{0}}
			if err := lp.Recover(again, mr, tc.source, 1, func(*Partition) error {
				t.Error("rebuild called past the recovery bound")
				return nil
			}); err != error(again) {
				t.Errorf("second recovery: %v, want the dead-rank error back", err)
			}
		})
	}
}
