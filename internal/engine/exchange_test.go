package engine

import (
	"errors"
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/diag"
	"repro/internal/microcode"
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
