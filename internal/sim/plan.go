package sim

import (
	"fmt"

	"repro/internal/arch"
	"repro/internal/microcode"
)

// This file is the decode layer of the simulator's decode-once /
// execute-many split. One microcode instruction completely specifies
// the node's pipeline configuration (§3: "one instruction = one
// complete pipeline configuration"), so everything the executor needs
// — live sources, switch routes, structural depths, producer graph,
// FU latencies, stream length — is a pure function of the instruction
// bits and the machine configuration. compilePlan derives it all once
// into an immutable ExecPlan; the run layer (exec.go) then replays the
// plan against mutable node state as many times as the sequencer
// dispatches it.

// planSourceKind distinguishes the two DMA read-channel classes.
type planSourceKind uint8

const (
	srcMem planSourceKind = iota
	srcCache
)

// planSource is one DMA read channel: at cycle c it emits element
// c-Skip of the programmed address walk (zero/valid during the
// suppressed lead-in, invalid after Count elements).
type planSource struct {
	slot  int
	kind  planSourceKind
	plane int // memory plane or cache plane index
	buf   int // cache plane only: double-buffer half
	addr  int64
	strd  int64
	skip  int64
	count int64
}

// planTap is one SDU tap: a pure shift of its input producer.
type planTap struct {
	in    int // input producer slot
	out   int // output producer slot
	shift int // 1 + programmed tap delay, cycles
}

// planFU is one active functional unit with both operand bindings
// resolved to producer slots or constants.
type planFU struct {
	fu     arch.FUID
	op     arch.Op
	lat    int
	arity  int
	aKind  microcode.InKind
	aSlot  int
	aDelay int
	aConst float64
	bKind  microcode.InKind
	bSlot  int
	bDelay int
	bConst float64
	reduce bool
	init   float64
	out    int // output producer slot
}

// planSink is one DMA write channel with its switch route resolved.
type planSink struct {
	kind  planSourceKind
	plane int
	buf   int
	addr  int64
	strd  int64
	start int
	skip  int64
	count int64
	from  int // producer slot feeding the sink
}

// planReduce records a reduction register commit: after the streams
// drain, RedReg[fu] takes the final value of producer slot `from`.
type planReduce struct {
	fu   int
	from int
}

// ExecPlan is the compiled, immutable form of one instruction. Plans
// carry no node state and may be shared between executions (and, since
// they are never mutated, between goroutines).
type ExecPlan struct {
	// control marks a pure control instruction (no vector streams):
	// execution is just issue overhead plus the sequencer epilogue.
	control bool

	vecLen int64
	T      int // drain point: cycles until the deepest producer finishes
	slots  int // number of live producers

	// srcID maps producer slot → switch-network source, for the tracer.
	srcID []arch.SourceID

	sources []planSource
	taps    []planTap
	fus     []planFU
	sinks   []planSink
	reduces []planReduce
	swaps   []int // cache planes swapped at completion

	// activeFU lists the functional units charged with vecLen busy
	// elements each; flopsPerElem is their summed per-element FLOP cost.
	activeFU     []int
	flopsPerElem int64
	// elements is the per-dispatch source-element count added to
	// Stats.Elements.
	elements int64

	seq microcode.Seq
	// cmpTh is the comparison threshold, resolved from the constant
	// pool at decode time.
	cmpTh     float64
	trapArmed bool

	// nReds counts reduction units, sizing the pooled accumulator
	// state in runScratch.
	nReds int

	// kern is the specialized branch-free kernel lowered from this
	// plan, or nil when lowering declined (see lowerKernel). The run
	// layer dispatches through it only when per-cycle detection
	// (traps, ECC, tracer) is provably unnecessary.
	kern *execKernel
}

// compilePlan decodes one instruction into an ExecPlan. It performs
// every static check the hardware would trap on — undefined opcodes,
// capability violations, dangling switch routes, DMA ranges outside
// the plane, routing cycles, out-of-range loop-counter indices — so
// the run layer can execute without re-validating.
func compilePlan(cfg arch.Config, inv *arch.Inventory, in *microcode.Instr) (*ExecPlan, error) {
	pl := &ExecPlan{seq: in.SeqOf()}
	pl.trapArmed = pl.seq.Trap
	pl.cmpTh = in.Const(pl.seq.CmpConst)
	if (pl.seq.CtrLoad || pl.seq.Cond == microcode.CondLoop) &&
		(pl.seq.Ctr < 0 || pl.seq.Ctr >= microcode.NumCounters) {
		return nil, fmt.Errorf("sim: seq.ctr %d out of range [0,%d)", pl.seq.Ctr, microcode.NumCounters)
	}

	// --- Functional-unit decode: opcode validity and capabilities. ---
	activeFU := make([]bool, cfg.TotalFUs)
	fuLat := make([]int, cfg.TotalFUs)
	for i := 0; i < cfg.TotalFUs; i++ {
		op := in.FUOp(arch.FUID(i))
		if !op.Valid() {
			return nil, fmt.Errorf("sim: fu%d has undefined opcode %d", i, op)
		}
		if op == arch.OpNop {
			continue
		}
		if !inv.FUs[i].Cap.Has(op.Info().Needs) {
			return nil, fmt.Errorf("sim: fu%d (%s) cannot perform %s: hardware fault trap",
				i, inv.FUs[i].Cap, op)
		}
		activeFU[i] = true
		fuLat[i] = op.Info().Latency
	}

	// --- DMA decode: sources, sinks, vector length. ---
	slot := map[arch.SourceID]int{}
	addSlot := func(src arch.SourceID) int {
		s := pl.slots
		slot[src] = s
		pl.srcID = append(pl.srcID, src)
		pl.slots++
		return s
	}

	for p := 0; p < cfg.MemPlanes; p++ {
		d := in.MemDMAOf(p)
		if !d.Enable {
			continue
		}
		if d.Write {
			pl.sinks = append(pl.sinks, planSink{
				kind: srcMem, plane: p, addr: d.Addr, strd: d.Stride,
				start: d.Start, skip: d.Skip, count: d.Count,
			})
			continue
		}
		last := d.Addr + (d.Count-1)*d.Stride
		lo, hi := d.Addr, last
		if hi < lo {
			lo, hi = hi, lo
		}
		if lo < 0 || hi >= cfg.PlaneWords() {
			return nil, fmt.Errorf("sim: mem%d DMA range [%d,%d] out of plane", p, lo, hi)
		}
		pl.sources = append(pl.sources, planSource{
			slot: addSlot(cfg.SrcMemRead(p)), kind: srcMem, plane: p,
			addr: d.Addr, strd: d.Stride, skip: d.Skip, count: d.Count,
		})
		pl.elements += d.Count
		if v := d.Skip + d.Count; v > pl.vecLen {
			pl.vecLen = v
		}
	}
	for p := 0; p < cfg.CachePlanes; p++ {
		d := in.CacheDMAOf(p)
		if !d.Enable {
			continue
		}
		if d.Swap {
			pl.swaps = append(pl.swaps, p)
		}
		if d.Write {
			pl.sinks = append(pl.sinks, planSink{
				kind: srcCache, plane: p, buf: d.Buf, addr: d.Addr, strd: d.Stride,
				start: d.Start, skip: d.Skip, count: d.Count,
			})
			continue
		}
		if d.Addr < 0 || d.Addr+(d.Count-1)*d.Stride >= cfg.CacheWords() || d.Addr+(d.Count-1)*d.Stride < 0 {
			return nil, fmt.Errorf("sim: cache%d DMA out of buffer", p)
		}
		pl.sources = append(pl.sources, planSource{
			slot: addSlot(cfg.SrcCacheRead(p)), kind: srcCache, plane: p, buf: d.Buf,
			addr: d.Addr, strd: d.Stride, skip: d.Skip, count: d.Count,
		})
		pl.elements += d.Count
		if v := d.Skip + d.Count; v > pl.vecLen {
			pl.vecLen = v
		}
	}
	for _, s := range pl.sinks {
		if v := s.skip + s.count; v > pl.vecLen {
			pl.vecLen = v
		}
	}
	if pl.vecLen == 0 {
		pl.control = true
		return pl, nil
	}

	// --- Structural depth: cycle offset at which each producer's
	// element stream begins (source = 0; SDU tap = in+1+tap;
	// FU = max(input depth + register delay) + latency). ---
	depth := map[arch.SourceID]int{}
	for s := range slot {
		depth[s] = 0
	}
	// Iterate to fixpoint: a unit's depth resolves once every producer
	// it consumes has resolved. The graph is finite, so at least one
	// new resolution happens per pass until done; anything left
	// unresolved afterwards is routed from an inactive source or sits
	// on a routing cycle.
	for {
		changed := false
		for u := 0; u < cfg.ShiftDelayUnits; u++ {
			en, taps := in.SDUOf(u)
			if !en {
				continue
			}
			if _, done := depth[cfg.SrcSDUTap(u, 0)]; done {
				continue
			}
			src := in.SinkSource(cfg.SnkSDUIn(u))
			if src == arch.InvalidSource {
				return nil, fmt.Errorf("sim: SDU%d enabled without an input route", u)
			}
			base, ok := depth[src]
			if !ok {
				continue // producer not resolved yet
			}
			for t, tapDelay := range taps {
				depth[cfg.SrcSDUTap(u, t)] = base + 1 + tapDelay
			}
			changed = true
		}
		for i := 0; i < cfg.TotalFUs; i++ {
			if !activeFU[i] {
				continue
			}
			fu := arch.FUID(i)
			if _, done := depth[cfg.SrcFUOut(fu)]; done {
				continue
			}
			need, ready := 0, true
			for side := 0; side < 2; side++ {
				kind, _, hw := in.FUInput(fu, side)
				if kind != microcode.InSwitch {
					continue
				}
				src := in.SinkSource(cfg.SnkFUIn(fu, side))
				if src == arch.InvalidSource {
					return nil, fmt.Errorf("sim: fu%d side %d expects a switch operand but none routed", i, side)
				}
				d, ok := depth[src]
				if !ok {
					ready = false
					break
				}
				if v := d + hw; v > need {
					need = v
				}
			}
			if !ready {
				continue
			}
			depth[cfg.SrcFUOut(fu)] = need + fuLat[i]
			changed = true
		}
		if !changed {
			break
		}
	}
	maxDepth := 0
	for _, d := range depth {
		if d > maxDepth {
			maxDepth = d
		}
	}
	for u := 0; u < cfg.ShiftDelayUnits; u++ {
		if en, _ := in.SDUOf(u); en {
			if _, ok := depth[cfg.SrcSDUTap(u, 0)]; !ok {
				src := in.SinkSource(cfg.SnkSDUIn(u))
				return nil, fmt.Errorf("sim: SDU%d input routed from inactive source %s", u, cfg.SourceName(src))
			}
		}
	}
	for i := 0; i < cfg.TotalFUs; i++ {
		if activeFU[i] {
			if _, ok := depth[cfg.SrcFUOut(arch.FUID(i))]; !ok {
				return nil, fmt.Errorf("sim: fu%d depends on an inactive source or a routing cycle", i)
			}
		}
	}

	// --- Drain point. ---
	for _, s := range pl.sinks {
		if need := s.start + int(s.skip+s.count); need > pl.T {
			pl.T = need
		}
	}
	if t := int(pl.vecLen) + maxDepth; t > pl.T {
		pl.T = t
	}

	// --- Producer slots for SDU taps and FU outputs. ---
	for u := 0; u < cfg.ShiftDelayUnits; u++ {
		if en, _ := in.SDUOf(u); en {
			for t := 0; t < cfg.SDUTaps; t++ {
				addSlot(cfg.SrcSDUTap(u, t))
			}
		}
	}
	for i := 0; i < cfg.TotalFUs; i++ {
		if activeFU[i] {
			addSlot(cfg.SrcFUOut(arch.FUID(i)))
		}
	}

	// --- SDU tap micro-ops. ---
	for u := 0; u < cfg.ShiftDelayUnits; u++ {
		en, tapDelays := in.SDUOf(u)
		if !en {
			continue
		}
		inSlot := slot[in.SinkSource(cfg.SnkSDUIn(u))]
		for t, d := range tapDelays {
			pl.taps = append(pl.taps, planTap{
				in: inSlot, out: slot[cfg.SrcSDUTap(u, t)], shift: 1 + d,
			})
		}
	}

	// --- FU micro-ops with resolved operand bindings. ---
	for i := 0; i < cfg.TotalFUs; i++ {
		if !activeFU[i] {
			continue
		}
		fu := arch.FUID(i)
		p := planFU{
			fu: fu, op: in.FUOp(fu), lat: fuLat[i], arity: in.FUOp(fu).Info().Arity,
			aSlot: -1, bSlot: -1, out: slot[cfg.SrcFUOut(fu)],
		}
		ak, ac, ad := in.FUInput(fu, 0)
		p.aKind, p.aDelay = ak, ad
		switch ak {
		case microcode.InSwitch:
			p.aSlot = slot[in.SinkSource(cfg.SnkFUIn(fu, 0))]
		case microcode.InConst:
			p.aConst = in.Const(ac)
		}
		bk, bc, bd := in.FUInput(fu, 1)
		p.bKind, p.bDelay = bk, bd
		switch bk {
		case microcode.InSwitch:
			p.bSlot = slot[in.SinkSource(cfg.SnkFUIn(fu, 1))]
		case microcode.InConst:
			p.bConst = in.Const(bc)
		}
		if red, init := in.FUReduce(fu); red {
			p.reduce = true
			p.init = in.Const(init)
			pl.reduces = append(pl.reduces, planReduce{fu: i, from: p.out})
			pl.nReds++
		}
		if p.arity >= 1 && p.aKind == microcode.InNone {
			return nil, fmt.Errorf("sim: fu%d (%s) operand A unconnected", i, p.op)
		}
		if p.arity >= 2 && !p.reduce && p.bKind == microcode.InNone {
			return nil, fmt.Errorf("sim: fu%d (%s) operand B unconnected", i, p.op)
		}
		pl.fus = append(pl.fus, p)
		pl.activeFU = append(pl.activeFU, i)
		pl.flopsPerElem += int64(p.op.Info().FLOPs)
	}

	// --- Sink routes. ---
	for k := range pl.sinks {
		s := &pl.sinks[k]
		var snk arch.SinkID
		if s.kind == srcMem {
			snk = cfg.SnkMemWrite(s.plane)
		} else {
			snk = cfg.SnkCacheWrite(s.plane)
		}
		src := in.SinkSource(snk)
		if src == arch.InvalidSource {
			return nil, fmt.Errorf("sim: write DMA on %s has no switch route", cfg.SinkName(snk))
		}
		from, ok := slot[src]
		if !ok {
			return nil, fmt.Errorf("sim: sink %s routed from inactive source %s",
				cfg.SinkName(snk), cfg.SourceName(src))
		}
		s.from = from
	}
	pl.kern = lowerKernel(pl)
	return pl, nil
}

// KernelStats reports how many vector dispatches ran through the
// specialized kernel (fast) versus the reference interpreter (slow).
// Control instructions take neither path and are not counted.
type KernelStats struct {
	Fast int64
	Slow int64
}

// KernelStatsOf returns the node's kernel path counters.
func (n *Node) KernelStatsOf() KernelStats {
	return KernelStats{Fast: n.kernelFast, Slow: n.kernelSlow}
}
