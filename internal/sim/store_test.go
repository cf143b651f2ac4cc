package sim

import (
	"math"
	"reflect"
	"sync"
	"testing"

	"repro/internal/arch"
	"repro/internal/microcode"
)

// TestStoreSharedScratchMatchesPrivate runs two boards over one store
// on one goroutine, alternating plans of different slab sizes so the
// single pooled scratch is reused across nodes and plans with stale
// lanes left over from a larger plan. One board takes the interpreter
// under the quiet-NaN policy (trap records), the other the kernel.
// Every grid, clock and trap record must equal the same sequence run
// on fresh nodes with private stores, even with the pooled scratch
// poisoned before every dispatch: nothing may leak through it.
func TestStoreSharedScratchMatchesPrivate(t *testing.T) {
	st, err := NewStore(arch.Default())
	if err != nil {
		t.Fatal(err)
	}
	a, b := st.NewNode(), st.NewNode()
	fa, fb := newNode(t), newNode(t)
	if a.Inv != b.Inv || a.F != b.F {
		t.Fatal("boards over one store must share its Inventory and Format")
	}

	const big = 96
	num := seq(big, func(i int) float64 { return fpEdgeA[i%len(fpEdgeA)] })
	den := seq(big, func(i int) float64 { return fpEdgeB[i%len(fpEdgeB)] })
	ramp := seq(300, func(i int) float64 { return float64(i)*0.5 - 40 })
	load := func(n *Node, plane int, v []float64) {
		t.Helper()
		if err := n.WriteWords(plane, 0, v); err != nil {
			t.Fatal(err)
		}
	}
	quiet := arch.TrapConfig{Policy: arch.TrapQuietNaN}
	for _, n := range []*Node{a, fa} {
		n.TrapCfg = quiet
		load(n, 0, num)
		load(n, 1, den)
		load(n, 3, ramp)
	}
	for _, n := range []*Node{b, fb} {
		load(n, 0, ramp)
	}
	progA := func(n *Node) []*microcode.Instr {
		return []*microcode.Instr{buildDiv(n, big), buildStencilMax(n, 3, 7)}
	}
	progB := func(n *Node) []*microcode.Instr {
		return []*microcode.Instr{buildStencilMax(n, 0, 300), buildStencilMax(n, 0, 5)}
	}
	insA, insB, insFA, insFB := progA(a), progB(b), progA(fa), progB(fb)
	for round := 0; round < 4; round++ {
		k := round % 2
		for _, step := range []struct {
			n  *Node
			in *microcode.Instr
		}{{a, insA[k]}, {b, insB[1-k]}, {fa, insFA[k]}, {fb, insFB[1-k]}} {
			// Poison the shared pool: a dispatch that read any lane
			// before writing it would now diverge from the private run.
			for _, sc := range st.free {
				poison(sc)
			}
			if err := step.n.Exec(step.in); err != nil {
				t.Fatalf("round %d: %v", round, err)
			}
		}
	}

	compareNodes(t, "interpreter board", a, fa)
	compareNodes(t, "kernel board", b, fb)
	if !reflect.DeepEqual(a.IRQs, fa.IRQs) || len(a.IRQs) == 0 {
		t.Errorf("trap records diverge or are missing: shared %+v, private %+v", a.IRQs, fa.IRQs)
	}
	if ks := b.KernelStatsOf(); ks.Fast != 4 || ks.Slow != 0 {
		t.Errorf("kernel board paths %+v, want 4 fast", ks)
	}
	if ks := a.KernelStatsOf(); ks.Slow != 4 {
		t.Errorf("interpreter board paths %+v, want 4 slow", ks)
	}
	if got := st.Stats(); got != (PlanCacheStats{Hits: 4, Misses: 4, Entries: 4}) {
		t.Errorf("shared store stats %+v, want 4 hits, 4 misses, 4 entries", got)
	}
	if len(st.free) != 1 {
		t.Errorf("one goroutine left %d pooled scratches, want 1", len(st.free))
	}
}

// poison fills every lane of a pooled scratch with valid NaNs.
func poison(sc *runScratch) {
	fill := func(v []float64, ok []bool) {
		for i := range v {
			v[i], ok[i] = math.NaN(), true
		}
	}
	fill(sc.val, sc.ok)
	for i := range sc.opv {
		fill(sc.opv[i], sc.opok[i])
	}
	for i := range sc.reds {
		sc.reds[i] = redState{acc: math.NaN(), accOK: true}
	}
}

// buildStencilMax streams count words of plane src through an SDU pair
// into an adder (u[i-1] + u[i+1]) written to plane 2, and folds the
// sums into a maxabs reduction: taps, staged operand lead-ins and a
// reduction lane, every part of the scratch a stale lane could leak
// through.
func buildStencilMax(n *Node, src int, count int64) *microcode.Instr {
	cfg := n.Cfg
	in := n.F.NewInstr()
	in.SetSDU(0, true, []int{0, 2})
	in.Route(cfg.SnkSDUIn(0), cfg.SrcMemRead(src))
	in.SetMemDMA(src, microcode.MemDMA{Enable: true, Addr: 0, Stride: 1, Count: count})
	add := arch.FUID(1)
	in.SetFUOp(add, arch.OpAdd)
	in.SetFUInput(add, 0, microcode.InSwitch, 0, 0)
	in.SetFUInput(add, 1, microcode.InSwitch, 0, 2)
	in.Route(cfg.SnkFUIn(add, 0), cfg.SrcSDUTap(0, 1))
	in.Route(cfg.SnkFUIn(add, 1), cfg.SrcSDUTap(0, 0))
	in.Route(cfg.SnkMemWrite(2), cfg.SrcFUOut(add))
	in.SetMemDMA(2, microcode.MemDMA{Enable: true, Write: true, Addr: 0, Stride: 1, Count: count,
		Start: 3 + arch.OpAdd.Info().Latency})
	red := arch.FUID(2)
	in.SetFUOp(red, arch.OpMaxAbs)
	in.SetFUInput(red, 0, microcode.InSwitch, 0, 0)
	in.SetFUInput(red, 1, microcode.InFeedback, 0, 0)
	in.SetFUReduce(red, true, 0)
	in.Route(cfg.SnkFUIn(red, 0), cfg.SrcFUOut(add))
	in.SetSeq(microcode.Seq{Cond: microcode.CondHalt})
	return in
}

// TestStoreConcurrentCounts: many boards dispatching the same
// instructions at once compile each distinct instruction exactly once,
// and the hit/miss totals equal a sequential run's.
func TestStoreConcurrentCounts(t *testing.T) {
	st, err := NewStore(arch.Default())
	if err != nil {
		t.Fatal(err)
	}
	const boards, reps = 8, 5
	var wg sync.WaitGroup
	errs := make([]error, boards)
	for r := 0; r < boards; r++ {
		n := st.NewNode()
		ins := []*microcode.Instr{buildCopy(n, 0, 1, 64), buildCopy(n, 1, 2, 32)}
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < reps; i++ {
				for _, in := range ins {
					if err := n.Exec(in); err != nil {
						errs[r] = err
						return
					}
				}
			}
		}(r)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	want := PlanCacheStats{Hits: boards*reps*2 - 2, Misses: 2, Entries: 2}
	if got := st.Stats(); got != want {
		t.Errorf("concurrent store stats %+v, want %+v", got, want)
	}
	if len(st.free) > boards {
		t.Errorf("%d pooled scratches for %d boards", len(st.free), boards)
	}
}
