package sim

import (
	"math"

	"repro/internal/arch"
	"repro/internal/microcode"
)

// This file is the run layer of the decode-once / execute-many split:
// it executes a compiled ExecPlan (see plan.go) against the node's
// mutable state. All mutation is confined to the receiver node and the
// run scratch it holds for the dispatch, so distinct nodes may execute
// plans concurrently.

// Exec runs one microcode instruction to completion: streams every
// cycle from 0 to the drain point, commits sink writes and reduction
// registers, evaluates the sequencer's comparison, raises interrupts,
// and accounts cycles and FLOPs. The instruction is decoded through
// the store's plan table, so a machine that replays the same
// instruction on any number of boards pays the decode cost exactly
// once. The sequencer decision itself (next PC) is Run's job.
func (n *Node) Exec(in *microcode.Instr) error {
	sc := n.store.acquire()
	defer n.store.release(sc)
	pl, err := n.store.plan(in, sc)
	if err != nil {
		return err
	}
	return n.run(pl, sc)
}

// ExecUncached is Exec without the plan table: the instruction is
// decoded afresh on every call. It exists to measure (and test) what
// the table buys; drivers should use Exec.
func (n *Node) ExecUncached(in *microcode.Instr) error {
	pl, err := compilePlan(n.Cfg, n.Inv, in)
	if err != nil {
		return err
	}
	sc := n.store.acquire()
	defer n.store.release(sc)
	return n.run(pl, sc)
}

// run executes a compiled plan against the node state. Sink writes,
// reduction registers and cache swaps commit only after evaluate
// completes, so an attempt aborted by a trap is side-effect free and a
// re-dispatch under the retry policy starts from identical state.
func (n *Node) run(pl *ExecPlan, sc *runScratch) error {
	cfg := n.Cfg
	start := n.Stats.Cycles
	if pl.control {
		// Pure control instruction: just issue overhead.
		n.Stats.Instructions++
		n.Stats.Cycles += int64(cfg.IssueOverheadCycles)
		n.observeExec(start)
		return n.finishInstr(pl.seq, pl.cmpTh)
	}

	tc := n.TrapCfg
	// Sequencer watchdog: an ExecPlan's drain point is known before the
	// first cycle streams, so the budget check is static per dispatch.
	// Fatal under the halt policy; an alarm interrupt under the rest.
	if tc.WatchdogCycles > 0 && int64(pl.T)+int64(cfg.IssueOverheadCycles) > tc.WatchdogCycles {
		n.TrapCounters.Watchdog++
		n.Obs.Inc("sim.trap." + TrapWatchdog.String())
		tr := &Trap{Kind: TrapWatchdog, Cycle: pl.T, At: n.Stats.Cycles}
		n.recordTrap(tr)
		if tc.Policy == arch.TrapHalt {
			n.TrapCounters.Halts++
			n.Obs.Inc("sim.trap.halts")
			return &TrapError{Trap: *tr, Attempts: 1}
		}
	}

	sc.fit(pl)
	detect := pl.trapArmed || tc.Armed()
	// Path selection happens once per dispatch: every condition that
	// could force a per-cycle check (trap detection, armed ECC events,
	// an attached tracer) is known before cycle 0 streams, so the
	// specialized kernel runs with those branches hoisted out entirely.
	// The interpreter below remains the reference semantics and the
	// only path that can observe a trap.
	if pl.kern != nil && !detect && n.Tracer == nil && len(n.ecc) == 0 && !n.KernelOff {
		n.kernelFast++
		n.Obs.Inc("sim.kernel.fast")
		n.runKernel(pl, sc)
	} else {
		n.kernelSlow++
		n.Obs.Inc("sim.kernel.slow")
		rc := tc.WithDefaults()
		for attempt := 0; ; attempt++ {
			tr, err := n.evaluate(pl, sc, detect)
			if err != nil {
				return err
			}
			if tr == nil {
				break
			}
			// Price the aborted attempt: the issue overhead plus every cycle
			// streamed before the trap fired.
			wasted := int64(cfg.IssueOverheadCycles) + int64(tr.Cycle) + 1
			n.Stats.Cycles += wasted
			if tc.Policy == arch.TrapRetry && tr.Kind != TrapUnknownOp && attempt < rc.MaxRetries {
				b := arch.Backoff(rc.RetryBackoffCycles, rc.MaxBackoffCycles, attempt)
				n.Stats.Cycles += b
				n.TrapCounters.Retries++
				n.TrapCounters.RetryCycles += wasted + b
				n.Obs.Inc("sim.trap.retries")
				continue
			}
			n.TrapCounters.Halts++
			n.Obs.Inc("sim.trap.halts")
			return &TrapError{Trap: *tr, Attempts: attempt + 1}
		}
	}

	// --- Commit sinks. ---
	for _, s := range pl.sinks {
		val, _ := sc.lane(pl.T, s.from)
		for j := int64(0); j < s.count; j++ {
			c := s.start + int(s.skip+j)
			var v float64
			if c >= 0 && c < len(val) {
				v = val[c]
			}
			var err error
			if s.kind == srcMem {
				err = n.Mem[s.plane].Write(s.addr+j*s.strd, v)
			} else {
				err = n.Cache[s.plane].Write(s.buf, s.addr+j*s.strd, v)
			}
			if err != nil {
				return err
			}
		}
	}

	// --- Reduction registers. ---
	for _, r := range pl.reduces {
		if val, _ := sc.lane(pl.T, r.from); len(val) > 0 {
			n.RedReg[r.fu] = val[len(val)-1]
		}
	}

	// --- Cycle accounting: issue overhead + fill + streaming time.
	// Each plane has a single DMA controller, so one instruction can
	// never put two streams on one plane; the §3 "contention problem"
	// manifests as the extra copy instructions a bad variable layout
	// forces (experiment P4), not as within-instruction stalls. ---
	n.Stats.Instructions++
	n.Stats.Cycles += int64(cfg.IssueOverheadCycles) + int64(pl.T)
	n.Stats.Elements += pl.elements
	if n.Stats.FUBusy == nil {
		n.Stats.FUBusy = make([]int64, cfg.TotalFUs)
	}
	for _, i := range pl.activeFU {
		n.Stats.FUBusy[i] += pl.vecLen
	}
	n.Stats.FLOPs += pl.flopsPerElem * pl.vecLen

	for _, p := range pl.swaps {
		n.Cache[p].Swap()
	}
	n.observeExec(start)
	return n.finishInstr(pl.seq, pl.cmpTh)
}

// observeExec reports one completed dispatch to the unified
// observability layer: counters plus one span on the node's tracer
// shard. The span timeline is the node's own cycle clock, so traces
// are deterministic at every worker count.
func (n *Node) observeExec(start int64) {
	o := n.Obs
	if o == nil {
		return
	}
	o.Inc("sim.exec.instructions")
	o.Add("sim.exec.cycles", n.Stats.Cycles-start)
	o.Span(n.ObsID, "sim", "exec", start, n.Stats.Cycles-start, nil)
}

// finishInstr evaluates the sequencer comparison and interrupt.
func (n *Node) finishInstr(s microcode.Seq, th float64) error {
	if s.CmpEnable {
		reg := n.RedReg[s.CmpFU]
		var r bool
		switch s.CmpOp {
		case microcode.CmpLT:
			r = reg < th
		case microcode.CmpLE:
			r = reg <= th
		case microcode.CmpGT:
			r = reg > th
		case microcode.CmpGE:
			r = reg >= th
		}
		n.setFlag(s.CmpFlag, r)
	}
	if s.IRQ {
		n.IRQs = append(n.IRQs, Interrupt{Cycle: n.Stats.Cycles})
	}
	if s.CtrLoad {
		n.Ctr[s.Ctr] = s.CtrValue
	}
	return nil
}

// evaluate streams every producer from cycle 0 to T-1. Because every
// functional unit has latency ≥ 1 and every SDU tap delays ≥ 1 cycle,
// the value at cycle c depends only on values at cycles < c, so a
// single pass over cycles suffices regardless of topology.
//
// With detect set (microcode trap bit or an armed trap policy),
// IEEE-754 exception conditions are classified per functional-unit
// application; a returned *Trap means the attempt aborted and may be
// re-dispatched by run. Node state other than trap counters and the
// IRQ log is untouched on abort — commits happen in run, afterwards.
func (n *Node) evaluate(pl *ExecPlan, sc *runScratch, detect bool) (*Trap, error) {
	// Reduction accumulators live in the pooled scratch; reset them to
	// the plan's initial values so a reused scratch starts clean.
	reds := sc.reds[:0]
	for _, p := range pl.fus {
		if p.reduce {
			reds = append(reds, redState{acc: p.init})
		}
	}

	T := pl.T
	tracer := n.Tracer
	for c := 0; c < T; c++ {
		for _, s := range pl.sources {
			var v float64
			ok := true
			e := int64(c) - s.skip
			switch {
			case int64(c) >= s.skip+s.count:
				ok = false
			case e < 0:
				// suppressed lead-in reads as zero, valid
			case s.kind == srcMem:
				addr := s.addr + e*s.strd
				v, _ = n.Mem[s.plane].Read(addr)
				// Modeled ECC sits on the plane's DMA read port: armed
				// events fire once each; single-bit flips are corrected in
				// flight, double-bit flips are uncorrectable.
				if n.ecc != nil {
					if f, hit := n.takeECC(s.plane, addr); hit {
						if !f.Double {
							n.TrapCounters.ECCCorrected++
							if o := n.Obs; o != nil {
								o.Inc("sim.ecc.corrected")
								o.Event(n.ObsID, "sim", "ecc-corrected",
									n.Stats.Cycles+int64(c), "single-bit",
									map[string]int64{"plane": int64(s.plane), "addr": addr})
							}
						} else {
							n.TrapCounters.ECCUncorrectable++
							n.Obs.Inc("sim.trap." + TrapECC.String())
							tr := &Trap{Kind: TrapECC, Plane: s.plane, Addr: addr,
								Element: e, Cycle: c, At: n.Stats.Cycles + int64(c)}
							n.recordTrap(tr)
							if n.TrapCfg.Policy != arch.TrapQuietNaN {
								return tr, nil
							}
							n.TrapCounters.Quieted++
							n.Obs.Inc("sim.trap.quieted")
							v = math.NaN()
						}
					}
				}
			default:
				v, _ = n.Cache[s.plane].Read(s.buf, s.addr+e*s.strd)
			}
			sc.val[s.slot*T+c], sc.ok[s.slot*T+c] = v, ok
			if tracer != nil {
				tracer(pl.srcID[s.slot], c, v, ok)
			}
		}
		for _, tp := range pl.taps {
			v, ok := sc.sample(T, tp.in, c-tp.shift)
			sc.val[tp.out*T+c], sc.ok[tp.out*T+c] = v, ok
			if tracer != nil {
				tracer(pl.srcID[tp.out], c, v, ok)
			}
		}
		ri := 0
		for k := range pl.fus {
			p := &pl.fus[k]
			var a, b float64
			var aOK, bOK bool
			switch p.aKind {
			case microcode.InSwitch:
				a, aOK = sc.sample(T, p.aSlot, c-p.lat-p.aDelay)
			case microcode.InConst:
				a, aOK = p.aConst, true
			default:
				aOK = true
			}
			var red *redState
			if p.reduce {
				red = &reds[ri]
				ri++
				b, bOK = red.acc, true
			} else {
				switch p.bKind {
				case microcode.InSwitch:
					b, bOK = sc.sample(T, p.bSlot, c-p.lat-p.bDelay)
				case microcode.InConst:
					b, bOK = p.bConst, true
				default:
					bOK = true
				}
			}
			valid := aOK && bOK
			if p.arity == 0 {
				valid = true
			}
			v, known := apply(p.op, a, b)
			if !known {
				// An opcode the run layer cannot execute is a hardware
				// fault, not a data exception: fatal under every policy,
				// never retried, never quieted into the stream.
				n.TrapCounters.UnknownOp++
				tr := n.fpTrap(pl, sc, p, TrapUnknownOp, c)
				n.recordTrap(tr)
				return tr, nil
			}
			if p.reduce {
				if aOK {
					red.acc = v
					red.accOK = true
				}
				sc.val[p.out*T+c], sc.ok[p.out*T+c] = red.acc, red.accOK
			} else {
				sc.val[p.out*T+c], sc.ok[p.out*T+c] = v, valid
			}
			// Fast gate: only NaN, Inf and subnormal results (exponent
			// field all-ones or all-zeros with a nonzero mantissa) can be
			// exceptions, so clean streams pay one bit test per result.
			if e := math.Float64bits(v) >> 52 & 0x7ff; detect && valid && (e == 0x7ff || (e == 0 && v != 0)) {
				arity := p.arity
				if p.reduce {
					arity = 2 // the accumulator is a real operand
				}
				kind, isNew := classifyFP(p.op, a, b, arity, v)
				if isNew {
					n.countTrapKind(kind)
				}
				// The microcode trap bit keeps its hardware semantics:
				// any non-finite result aborts the instruction, even one
				// merely propagating a poisoned operand.
				if pl.trapArmed && (math.IsNaN(v) || math.IsInf(v, 0)) {
					if !isNew {
						if math.IsNaN(v) {
							kind = TrapInvalid
						} else {
							kind = TrapOverflow
						}
					}
					tr := n.fpTrap(pl, sc, p, kind, c)
					n.recordTrap(tr)
					return tr, nil
				}
				// Underflow is gradual and IEEE-correct: counted above,
				// never recorded or aborted under any policy.
				if isNew && kind != TrapUnderflow {
					tr := n.fpTrap(pl, sc, p, kind, c)
					switch n.TrapCfg.Policy {
					case arch.TrapQuietNaN:
						n.recordTrap(tr)
						n.TrapCounters.Quieted++
						n.Obs.Inc("sim.trap.quieted")
					case arch.TrapHalt, arch.TrapRetry:
						n.recordTrap(tr)
						return tr, nil
					}
				}
			}
			if tracer != nil {
				tracer(pl.srcID[p.out], c, sc.val[p.out*T+c], sc.ok[p.out*T+c])
			}
		}
	}
	return nil, nil
}

// fpTrap builds the trap record for a functional-unit exception at
// cycle c. The element index is the count of valid results the unit
// produced before the fault — computed only on the trap path, so the
// clean path pays nothing for it.
func (n *Node) fpTrap(pl *ExecPlan, sc *runScratch, p *planFU, kind TrapKind, c int) *Trap {
	var elem int64
	for i := 0; i < c; i++ {
		if sc.ok[p.out*pl.T+i] {
			elem++
		}
	}
	return &Trap{
		Kind: kind, Op: p.op, FU: p.fu, ALS: n.Inv.FUs[p.fu].ALS,
		Element: elem, Cycle: c, At: n.Stats.Cycles + int64(c),
	}
}

// apply computes one functional-unit operation. The second result is
// false when the opcode has no run-layer implementation — a hardware
// fault the caller must raise as TrapUnknownOp rather than letting a
// NaN poison the stream silently.
func apply(op arch.Op, a, b float64) (float64, bool) {
	switch op {
	case arch.OpNop:
		return 0, true
	case arch.OpMov:
		return a, true
	case arch.OpAdd:
		return a + b, true
	case arch.OpSub:
		return a - b, true
	case arch.OpMul:
		return a * b, true
	case arch.OpDiv:
		return a / b, true
	case arch.OpNeg:
		return -a, true
	case arch.OpAbs:
		return math.Abs(a), true
	case arch.OpFMA:
		return a*b + 0, true // accumulate path handled via reduce feedback
	case arch.OpRecip:
		return 1 / a, true
	case arch.OpIAdd:
		return float64(int64(a) + int64(b)), true
	case arch.OpISub:
		return float64(int64(a) - int64(b)), true
	case arch.OpIMul:
		return float64(int64(a) * int64(b)), true
	case arch.OpAnd:
		return float64(int64(a) & int64(b)), true
	case arch.OpOr:
		return float64(int64(a) | int64(b)), true
	case arch.OpXor:
		return float64(int64(a) ^ int64(b)), true
	case arch.OpShl:
		return float64(int64(a) << uint(int64(b)&63)), true
	case arch.OpShr:
		return float64(uint64(int64(a)) >> uint(int64(b)&63)), true
	case arch.OpCmpLT:
		if a < b {
			return 1, true
		}
		return 0, true
	case arch.OpCmpEQ:
		if a == b {
			return 1, true
		}
		return 0, true
	case arch.OpMax:
		return math.Max(a, b), true
	case arch.OpMin:
		return math.Min(a, b), true
	case arch.OpMaxAbs:
		return math.Max(math.Abs(a), math.Abs(b)), true
	}
	return math.NaN(), false
}
