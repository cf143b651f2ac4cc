package engine

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/diag"
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
func (f *scatterFabric) Corrupt(int, int, int64, int) error { return nil }
func (f *scatterFabric) AddMachineCycles(c int64)           { f.machine += c }
func (f *scatterFabric) AddCommCycles(c int64)              { f.com += c }

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
