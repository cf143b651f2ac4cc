package engine

import (
	"errors"
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/diag"
	"repro/internal/jacobi"
	"repro/internal/microcode"
	"repro/internal/obs"
	"repro/internal/sim"
)

// ringFabric is a small real-node Fabric for pinning the halo exchange:
// three ranks, ring distance |from-to| hops, cost = bytes + 10·hops, and
// the same XOR corruption the hypercube machine applies.
type ringFabric struct {
	nodes         []*sim.Node
	stretch       int // hops per ring step; 0 means 1
	machine, comm int64
}

func newRingFabric(t *testing.T, p int) *ringFabric {
	t.Helper()
	f := &ringFabric{}
	for r := 0; r < p; r++ {
		nd, err := sim.NewNode(arch.Default())
		if err != nil {
			t.Fatal(err)
		}
		f.nodes = append(f.nodes, nd)
	}
	return f
}

func (f *ringFabric) P() int                               { return len(f.nodes) }
func (f *ringFabric) Topology() string                     { return "ring" }
func (f *ringFabric) CombineHops() []int                   { return []int{1, 1} }
func (f *ringFabric) Node(r int) *sim.Node                 { return f.nodes[r] }
func (f *ringFabric) WordBytes() int                       { return 8 }
func (f *ringFabric) SendCost(bytes int64, hops int) int64 { return bytes + 10*int64(hops) }
func (f *ringFabric) Hops(from, to int) int {
	d := to - from
	if d < 0 {
		d = -d
	}
	return d * max(f.stretch, 1)
}
func (f *ringFabric) Corrupt(r, plane int, addr int64, count int) error {
	data, err := f.nodes[r].ReadWords(plane, addr, count)
	if err != nil {
		return err
	}
	for i, v := range data {
		data[i] = flip(v)
	}
	return f.nodes[r].WriteWords(plane, addr, data)
}
func (f *ringFabric) AddMachineCycles(c int64) { f.machine += c }
func (f *ringFabric) AddCommCycles(c int64)    { f.comm += c }

func flip(v float64) float64 { return math.Float64frombits(math.Float64bits(v) ^ 0x8000000000000421) }

// haltInstr is a node-local no-op: the dispatch the exchange follows.
func haltInstr(nd *sim.Node) *microcode.Instr {
	in := nd.F.NewInstr()
	in.SetSeq(microcode.Seq{Cond: microcode.CondHalt})
	return in
}

// TestExchangeFaultSemantics pins the faulted halo exchange on a
// three-rank ring with one plane per rank: a fault plan aimed at pair
// (0,1) on sweep 0, then the ghost-plane words, the fault counters and
// both clocks the exchange leaves behind. Pair (1,2) always exchanges
// clean, so every case also checks that one pair's faults stay on it.
func TestExchangeFaultSemantics(t *testing.T) {
	const (
		p, n, nz = 3, 4, 5
		nn       = n * n
		plane    = 1
	)
	fault := func(kind FaultKind, repeat int) *FaultPlan {
		ev := FaultEvent{Sweep: 0, Phase: PhaseExchange, Rank: 0, Kind: kind, Repeat: repeat}
		if kind == FaultStall {
			ev.Stall = 500
		}
		return MustFaultPlan(ev)
	}
	cases := []struct {
		name  string
		plan  *FaultPlan
		stats FaultStats
		// Pair (0,1)'s router cost is sends deliveries (two face messages
		// each) plus extra stall and backoff cycles; stretch sets the hops
		// between ring neighbours, as a shrink can leave them.
		sends, extra int64
		stretch      int
		// delivered: pair (0,1)'s faces arrived; corrupt: rank 1's low
		// ghost ended bit-flipped; budget: the pair exhausted its retries.
		delivered, corrupt, budget bool
	}{
		{name: "clean", sends: 1, delivered: true},
		{name: "clean-armed", plan: MustFaultPlan(), sends: 1, delivered: true},
		{name: "clean-stretched", plan: MustFaultPlan(), sends: 1, stretch: 2, delivered: true},
		{name: "stall", plan: fault(FaultStall, 1), sends: 1, extra: 500, delivered: true,
			stats: FaultStats{Injected: 1, Stalls: 1, StallCycles: 500}},
		{name: "kill-retry", plan: fault(FaultKill, 1), sends: 1, extra: 64, delivered: true,
			stats: FaultStats{Injected: 1, Kills: 1, Retries: 1, BackoffCycles: 64}},
		{name: "kill-exhausted", plan: fault(FaultKill, 3), extra: 64 + 128, budget: true,
			stats: FaultStats{Injected: 3, Kills: 3, Retries: 2, BackoffCycles: 192, Exhausted: 1}},
		{name: "corrupt-retry", plan: fault(FaultCorrupt, 1), sends: 2, extra: 64, delivered: true,
			stats: FaultStats{Injected: 1, Corruptions: 1, Retries: 1, BackoffCycles: 64}},
		{name: "corrupt-exhausted", plan: fault(FaultCorrupt, 3), sends: 3, extra: 192,
			delivered: true, corrupt: true, budget: true,
			stats: FaultStats{Injected: 3, Corruptions: 3, Retries: 2, BackoffCycles: 192, Exhausted: 1}},
		// A corrupt delivery followed by lost re-sends: the flipped words
		// are the last to land, so they stay.
		{name: "corrupt-then-kill", sends: 1, extra: 64 + 128, delivered: true, corrupt: true, budget: true,
			plan: MustFaultPlan(
				FaultEvent{Sweep: 0, Phase: PhaseExchange, Rank: 0, Kind: FaultCorrupt},
				FaultEvent{Sweep: 0, Phase: PhaseExchange, Rank: 0, Kind: FaultKill, Repeat: 2}),
			stats: FaultStats{Injected: 3, Kills: 2, Corruptions: 1, Retries: 2, BackoffCycles: 192, Exhausted: 1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := newRingFabric(t, p)
			f.stretch = tc.stretch
			pair := 2 * f.SendCost(nn*8, f.Hops(0, 1)) // one clean pair exchange
			cost0 := tc.sends*pair + tc.extra
			part, err := NewPartition(p, n, nz)
			if err != nil {
				t.Fatal(err)
			}
			// Rank r's plane holds r·1000 + address: ghosts, then its one
			// owned plane, then the high ghost.
			before := make([][]float64, p)
			for r := 0; r < p; r++ {
				w := make([]float64, 3*nn)
				for i := range w {
					w[i] = float64(r*1000 + i)
				}
				before[r] = w
				if err := f.nodes[r].WriteWords(plane, 0, w); err != nil {
					t.Fatal(err)
				}
			}
			lp, err := NewLoop(&Config{Fabric: f, Part: part, Faults: tc.plan})
			if err != nil {
				t.Fatal(err)
			}
			if be, err := lp.Dispatch(0, func(r int) *microcode.Instr { return haltInstr(f.nodes[r]) }, plane); be != nil || err != nil {
				t.Fatalf("dispatch: %v %v", be, err)
			}
			m0 := f.machine
			be, err := lp.Exchange(0, plane)
			if err != nil {
				t.Fatal(err)
			}
			if (be != nil) != tc.budget {
				t.Fatalf("budget error = %v, want %v", be, tc.budget)
			}
			if be != nil && (be.Phase != PhaseExchange || be.Rank != 0 || be.Attempts != 3) {
				t.Errorf("budget error %+v", be)
			}
			if got := lp.Stats(); got != tc.stats {
				t.Errorf("stats %+v, want %+v", got, tc.stats)
			}
			if f.comm != cost0+pair {
				t.Errorf("comm cycles %d, want %d", f.comm, cost0+pair)
			}
			if got, want := f.machine-m0, max(pair, cost0); got != want {
				t.Errorf("machine cycles +%d, want +%d", got, want)
			}

			after := make([][]float64, p)
			for r := 0; r < p; r++ {
				if after[r], err = f.nodes[r].ReadWords(plane, 0, 3*nn); err != nil {
					t.Fatal(err)
				}
			}
			owned := func(r int) []float64 { return before[r][nn : 2*nn] }
			// Pair (1,2) is always clean.
			if !slices.Equal(after[1][2*nn:], owned(2)) || !slices.Equal(after[2][:nn], owned(1)) {
				t.Error("clean pair (1,2) did not swap faces")
			}
			// Owned planes and the outer ghosts never move.
			for r := 0; r < p; r++ {
				if !slices.Equal(after[r][nn:2*nn], owned(r)) {
					t.Errorf("rank %d owned plane changed", r)
				}
			}
			if !slices.Equal(after[0][:nn], before[0][:nn]) || !slices.Equal(after[2][2*nn:], before[2][2*nn:]) {
				t.Error("outer ghost planes changed")
			}
			low1, high0 := before[1][:nn], before[0][2*nn:]
			if tc.delivered {
				low1, high0 = owned(0), owned(1)
			}
			if tc.corrupt {
				low1 = slices.Clone(low1)
				for i := range low1 {
					low1[i] = flip(low1[i])
				}
			}
			if !slices.Equal(after[1][:nn], low1) {
				t.Errorf("rank 1 low ghost = %v…, want %v…", after[1][:2], low1[:2])
			}
			if !slices.Equal(after[0][2*nn:], high0) {
				t.Errorf("rank 0 high ghost = %v…, want %v…", after[0][2*nn:2*nn+2], high0[:2])
			}
		})
	}
}

// TestExchangeNeedsGatheredPlane: the exchange scatters the faces the
// preceding dispatch gathered, so exchanging any other plane — or after
// a dispatch that gathered nothing — is an error, not stale ghosts.
func TestExchangeNeedsGatheredPlane(t *testing.T) {
	f := newRingFabric(t, 3)
	part, err := NewPartition(3, 4, 5)
	if err != nil {
		t.Fatal(err)
	}
	lp, err := NewLoop(&Config{Fabric: f, Part: part})
	if err != nil {
		t.Fatal(err)
	}
	halt := func(r int) *microcode.Instr { return haltInstr(f.nodes[r]) }
	if _, err := lp.Exchange(0, 1); err == nil {
		t.Error("exchange before any dispatch accepted")
	}
	if _, err := lp.Dispatch(0, halt, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := lp.Exchange(0, 0); err == nil {
		t.Error("exchange of an ungathered plane accepted")
	}
	if _, err := lp.Exchange(0, 1); err != nil {
		t.Errorf("exchange of the gathered plane: %v", err)
	}
	if _, err := lp.Dispatch(1, halt, -1); err != nil {
		t.Fatal(err)
	}
	if _, err := lp.Exchange(1, 1); err == nil {
		t.Error("exchange after a dispatch that gathered nothing accepted")
	}
}

// TestCheckFaultPoints: events aimed past the fabric are typed R040
// errors; the last valid rank, pair and combine round pass.
func TestCheckFaultPoints(t *testing.T) {
	f := newRingFabric(t, 3) // 3 ranks, 2 ring pairs, 2 combine rounds
	ev := func(ph Phase, rank int) *FaultPlan {
		return MustFaultPlan(FaultEvent{Sweep: 1, Phase: ph, Rank: rank, Kind: FaultKill})
	}
	if err := CheckFaultPoints(nil, f); err != nil {
		t.Errorf("nil plan: %v", err)
	}
	for _, ok := range []*FaultPlan{ev(PhaseDispatch, 2), ev(PhaseExchange, 1), ev(PhaseMerge, 1)} {
		if err := CheckFaultPoints(ok, f); err != nil {
			t.Errorf("%s rejected: %v", ok.Events[0], err)
		}
	}
	for _, bad := range []*FaultPlan{ev(PhaseDispatch, 3), ev(PhaseExchange, 2), ev(PhaseMerge, 2)} {
		err := CheckFaultPoints(bad, f)
		var de *diag.DiagError
		if !errors.As(err, &de) || de.Rule() != diag.RuleFaultPlan {
			t.Errorf("%s: %v, want an R040 diagnostic", bad.Events[0], err)
			continue
		}
		if !strings.Contains(err.Error(), bad.Events[0].String()) {
			t.Errorf("error %q does not name the event", err)
		}
	}
}

// TestDispatchFaultSemantics pins the dispatch and combine barriers'
// fault handling on the same three-rank ring: faults are drawn on the
// host in rank order before each barrier, a rank that dies or runs out
// of retry budget does not execute, the lowest rank's budget error
// surfaces, dead ranks are reported ascending, and the combine charges
// every wasted round it re-sends.
func TestDispatchFaultSemantics(t *testing.T) {
	const p, n, nz = 3, 4, 5
	ev := func(ph Phase, rank int, kind FaultKind, repeat int) FaultEvent {
		e := FaultEvent{Sweep: 0, Phase: ph, Rank: rank, Kind: kind, Repeat: repeat}
		if kind == FaultStall {
			e.Stall = 500
		}
		return e
	}
	loop := func(t *testing.T, plan *FaultPlan) (*ringFabric, *Loop) {
		t.Helper()
		f := newRingFabric(t, p)
		part, err := NewPartition(p, n, nz)
		if err != nil {
			t.Fatal(err)
		}
		lp, err := NewLoop(&Config{Fabric: f, Part: part, Faults: plan})
		if err != nil {
			t.Fatal(err)
		}
		return f, lp
	}
	// One halt costs the same on every node; measure it once.
	probe := newRingFabric(t, 1).nodes[0]
	if err := probe.Exec(haltInstr(probe)); err != nil {
		t.Fatal(err)
	}
	halt := probe.Stats.Cycles

	t.Run("dispatch", func(t *testing.T) {
		cases := []struct {
			name   string
			events []FaultEvent
			stats  FaultStats
			extra  [p]int64 // per-rank stall and backoff cycles
			ran    [p]bool  // which ranks executed
			budget int      // rank of the surfaced budget error, or -1
			dead   []int
		}{
			{name: "stall", events: []FaultEvent{ev(PhaseDispatch, 1, FaultStall, 1)},
				stats: FaultStats{Injected: 1, Stalls: 1, StallCycles: 500},
				extra: [p]int64{0, 500, 0}, ran: [p]bool{true, true, true}, budget: -1},
			{name: "kill-retry", events: []FaultEvent{ev(PhaseDispatch, 1, FaultKill, 1)},
				stats: FaultStats{Injected: 1, Kills: 1, Retries: 1, BackoffCycles: 64},
				extra: [p]int64{0, 64, 0}, ran: [p]bool{true, true, true}, budget: -1},
			{name: "kill-exhausted", events: []FaultEvent{ev(PhaseDispatch, 2, FaultKill, 3), ev(PhaseDispatch, 1, FaultKill, 3)},
				stats: FaultStats{Injected: 6, Kills: 6, Retries: 4, BackoffCycles: 384, Exhausted: 2},
				extra: [p]int64{0, 192, 192}, ran: [p]bool{true, false, false}, budget: 1},
			{name: "kill-forever", events: []FaultEvent{ev(PhaseDispatch, 2, FaultKillForever, 1), ev(PhaseDispatch, 0, FaultKillForever, 1)},
				stats: FaultStats{Injected: 2, Kills: 2},
				ran:   [p]bool{false, true, false}, budget: -1, dead: []int{0, 2}},
		}
		for _, tc := range cases {
			t.Run(tc.name, func(t *testing.T) {
				f, lp := loop(t, MustFaultPlan(tc.events...))
				be, err := lp.Dispatch(0, func(r int) *microcode.Instr { return haltInstr(f.nodes[r]) }, 1)
				var dre *DeadRankError
				if tc.dead != nil {
					if !errors.As(err, &dre) || !slices.Equal(dre.Ranks, tc.dead) || dre.Sweep != 0 {
						t.Fatalf("err = %v, want ranks %v dead", err, tc.dead)
					}
				} else if err != nil {
					t.Fatal(err)
				}
				switch {
				case tc.budget < 0 && be != nil:
					t.Fatalf("unexpected budget error %v", be)
				case tc.budget >= 0 && (be == nil || be.Phase != PhaseDispatch || be.Rank != tc.budget || be.Attempts != 3):
					t.Fatalf("budget error %+v, want rank %d after 3 attempts", be, tc.budget)
				}
				if got := lp.Stats(); got != tc.stats {
					t.Errorf("stats %+v, want %+v", got, tc.stats)
				}
				var worst int64
				for r := 0; r < p; r++ {
					cyc := tc.extra[r]
					if tc.ran[r] {
						cyc += halt
					}
					worst = max(worst, cyc)
					if ran := f.nodes[r].Stats.Cycles > 0; ran != tc.ran[r] {
						t.Errorf("rank %d executed = %v, want %v", r, ran, tc.ran[r])
					}
				}
				if f.machine != worst || f.comm != 0 {
					t.Errorf("machine/comm cycles %d/%d, want %d/0", f.machine, f.comm, worst)
				}
				// Only a clean barrier leaves faces for the exchange.
				_, xerr := lp.Exchange(0, 1)
				if clean := tc.budget < 0 && tc.dead == nil; (xerr == nil) != clean {
					t.Errorf("exchange after the dispatch: %v, want success %v", xerr, clean)
				}
			})
		}
	})

	t.Run("combine", func(t *testing.T) {
		step := int64(8 + 10) // one word over one hop
		cases := []struct {
			name   string
			events []FaultEvent
			stats  FaultStats
			cost   int64
			budget int // round of the surfaced budget error, or -1
		}{
			{name: "clean", cost: 2 * step, budget: -1},
			{name: "stall", events: []FaultEvent{ev(PhaseMerge, 0, FaultStall, 1)},
				stats: FaultStats{Injected: 1, Stalls: 1, StallCycles: 500}, cost: 500 + 2*step, budget: -1},
			{name: "kill-retry", events: []FaultEvent{ev(PhaseMerge, 1, FaultKill, 1)},
				stats: FaultStats{Injected: 1, Kills: 1, Retries: 1, BackoffCycles: 64}, cost: 3*step + 64, budget: -1},
			{name: "corrupt-retry", events: []FaultEvent{ev(PhaseMerge, 0, FaultCorrupt, 1)},
				stats: FaultStats{Injected: 1, Corruptions: 1, Retries: 1, BackoffCycles: 64}, cost: 3*step + 64, budget: -1},
			// Round 0 exhausts: round 1 never runs, the two re-sends are charged.
			{name: "kill-exhausted", events: []FaultEvent{ev(PhaseMerge, 0, FaultKill, 3), ev(PhaseMerge, 1, FaultStall, 1)},
				stats: FaultStats{Injected: 3, Kills: 3, Retries: 2, BackoffCycles: 192, Exhausted: 1}, cost: 2*step + 192, budget: 0},
		}
		for _, tc := range cases {
			t.Run(tc.name, func(t *testing.T) {
				f, lp := loop(t, MustFaultPlan(tc.events...))
				for r, v := range []float64{0.25, 3, 1.5} {
					f.nodes[r].RedReg[jacobi.ResidualFU] = v
				}
				worst, be := lp.CombineResidual(0)
				if worst != 3 {
					t.Errorf("combined residual %g, want 3", worst)
				}
				switch {
				case tc.budget < 0 && be != nil:
					t.Fatalf("unexpected budget error %v", be)
				case tc.budget >= 0 && (be == nil || be.Phase != PhaseMerge || be.Rank != tc.budget || be.Attempts != 3):
					t.Fatalf("budget error %+v, want round %d after 3 attempts", be, tc.budget)
				}
				if got := lp.Stats(); got != tc.stats {
					t.Errorf("stats %+v, want %+v", got, tc.stats)
				}
				if f.comm != tc.cost || f.machine != tc.cost {
					t.Errorf("comm/machine cycles %d/%d, want %d", f.comm, f.machine, tc.cost)
				}
			})
		}
	})
}

// TestRepartitionKeepsLoopState: after a shrink leaves the fabric one
// rank short, Repartition re-sizes the loop for the new partition and
// keeps its fault counters and its trace timeline running; each
// generation counts once per fabric.
func TestRepartitionKeepsLoopState(t *testing.T) {
	f := newRingFabric(t, 3)
	part, err := NewPartition(3, 4, 5)
	if err != nil {
		t.Fatal(err)
	}
	o := obs.New()
	var phases []string
	lp, err := NewLoop(&Config{Fabric: f, Part: part, Obs: o,
		Faults:  MustFaultPlan(FaultEvent{Sweep: 0, Phase: PhaseDispatch, Rank: 1, Kind: FaultKillForever}),
		Observe: func(phase string, sweep int, cycles int64) { phases = append(phases, phase) }})
	if err != nil {
		t.Fatal(err)
	}
	halt := func(r int) *microcode.Instr { return haltInstr(f.nodes[r]) }
	lp.HostPhase("buddy", 0)
	var dre *DeadRankError
	if _, err := lp.Dispatch(0, halt, 1); !errors.As(err, &dre) {
		t.Fatalf("dispatch: %v, want a dead rank", err)
	}
	f.nodes = slices.Delete(f.nodes, 1, 2)
	if err := lp.Repartition(part); err == nil {
		t.Error("a 3-rank partition accepted on a 2-rank fabric")
	}
	shrunk, err := NewPartition(2, 4, 5)
	if err != nil {
		t.Fatal(err)
	}
	if err := lp.Repartition(shrunk); err != nil {
		t.Fatal(err)
	}
	lp.Event("recovery", "shrink", nil)
	if _, err := lp.Dispatch(0, halt, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := lp.Exchange(0, 1); err != nil {
		t.Fatal(err)
	}
	if st := lp.Stats(); st.Kills != 1 || st.Injected != 1 {
		t.Errorf("stats %+v: the kill before the repartition was lost", st)
	}
	if got := o.Reg.Totals()["counter/engine.topology.ring"]; got != 2 {
		t.Errorf("engine.topology.ring = %d, want 2 loop generations", got)
	}
	if want := []string{"buddy", "dispatch", "dispatch", "exchange"}; !slices.Equal(phases, want) {
		t.Errorf("phases %v, want %v", phases, want)
	}
	var names []string
	last := int64(0)
	for _, sp := range o.Tr.Spans() {
		if sp.TS < last {
			t.Errorf("%s at ts %d follows ts %d", sp.Name, sp.TS, last)
		}
		last = sp.TS
		names = append(names, sp.Name)
	}
	if want := []string{"buddy", "dispatch", "dead-rank", "recovery", "dispatch", "exchange"}; !slices.Equal(names, want) {
		t.Errorf("spans %v, want %v", names, want)
	}
	if last == 0 {
		t.Error("timeline never advanced")
	}
}
