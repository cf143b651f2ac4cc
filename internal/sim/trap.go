package sim

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"repro/internal/arch"
	"repro/internal/diag"
)

// This file is the node's exception subsystem: typed trap records for
// IEEE-754 exception conditions detected per functional-unit
// application, a modeled memory-plane ECC layer, and the sequencer
// watchdog. Detection is classification only — what happens next
// (halt, retry, quiet continuation) is the arch.TrapConfig policy,
// applied by the run layer in exec.go.

// TrapKind classifies a node exception.
type TrapKind int

const (
	// TrapInvalid is an invalid operation: a functional unit produced a
	// NaN from non-NaN operands (0/0, ∞−∞, 0·∞).
	TrapInvalid TrapKind = iota
	// TrapDivZero is a division of a finite nonzero value by zero.
	TrapDivZero
	// TrapOverflow is a finite-operand result that rounded to ±Inf.
	TrapOverflow
	// TrapUnderflow is a nonzero result that rounded into the
	// subnormal range. Underflow is recorded and counted but never
	// aborts — gradual underflow is the correct IEEE default.
	TrapUnderflow
	// TrapUnknownOp is an opcode the run layer cannot execute: a
	// hardware fault, fatal under every policy.
	TrapUnknownOp
	// TrapECC is an uncorrectable (double-bit) memory-plane error
	// detected by the modeled ECC on a DMA read.
	TrapECC
	// TrapWatchdog is the sequencer watchdog: an instruction whose
	// drain point exceeds the configured cycle budget.
	TrapWatchdog
)

// String names the trap kind.
func (k TrapKind) String() string {
	switch k {
	case TrapInvalid:
		return "invalid"
	case TrapDivZero:
		return "div-zero"
	case TrapOverflow:
		return "overflow"
	case TrapUnderflow:
		return "underflow"
	case TrapUnknownOp:
		return "unknown-op"
	case TrapECC:
		return "ecc-uncorrectable"
	case TrapWatchdog:
		return "watchdog"
	}
	return fmt.Sprintf("TrapKind(%d)", int(k))
}

// Trap is one typed exception record: what condition arose, on which
// unit or plane, at which element and cycle.
type Trap struct {
	Kind TrapKind
	// Op and FU identify the functional-unit application that raised a
	// floating-point trap; ALS is the structure the unit sits in.
	Op  arch.Op
	FU  arch.FUID
	ALS arch.ALSID
	// Plane and Addr locate an ECC trap's faulted word.
	Plane int
	Addr  int64
	// Element is the logical stream element being processed; Cycle the
	// cycle within the instruction; At the absolute node cycle.
	Element int64
	Cycle   int
	At      int64
}

// String renders the record for error messages and logs.
func (t Trap) String() string {
	switch t.Kind {
	case TrapECC:
		return fmt.Sprintf("%s: plane %d addr %d, element %d, cycle %d (node cycle %d)",
			t.Kind, t.Plane, t.Addr, t.Element, t.Cycle, t.At)
	case TrapWatchdog:
		return fmt.Sprintf("%s: instruction needs %d cycles, over budget (node cycle %d)",
			t.Kind, t.Cycle, t.At)
	default:
		return fmt.Sprintf("%s: fu%d (%s, als%d), element %d, cycle %d (node cycle %d)",
			t.Kind, t.FU, t.Op, t.ALS, t.Element, t.Cycle, t.At)
	}
}

// TrapError is the structured error an aborted instruction returns.
type TrapError struct {
	Trap Trap
	// Attempts counts dispatches made (1 without retry policy).
	Attempts int
}

// Error names the trap precisely — plane/element/cycle for ECC, unit/
// element/cycle for FP — so drivers can surface it verbatim.
func (e *TrapError) Error() string {
	if e.Attempts > 1 {
		return fmt.Sprintf("sim: trap %s after %d attempts", e.Trap, e.Attempts)
	}
	return fmt.Sprintf("sim: trap %s", e.Trap)
}

// TrapStats counts exception conditions and the recovery work they
// caused. All counters are per-node and merge in rank order in the
// multi-node drivers, so parallel runs report identical totals.
type TrapStats struct {
	// Per-kind detection counters (every occurrence, every attempt).
	Invalid   int64
	DivZero   int64
	Overflow  int64
	Underflow int64
	UnknownOp int64
	// ECC accounting: corrected single-bit flips and uncorrectable
	// double-bit events.
	ECCCorrected     int64
	ECCUncorrectable int64
	// Watchdog counts sequencer budget violations.
	Watchdog int64
	// Quieted counts values substituted/passed through under the
	// quiet-NaN policy.
	Quieted int64
	// Retries counts re-dispatches under the retry policy and
	// RetryCycles their total simulated cost (wasted stream time plus
	// backoff).
	Retries     int64
	RetryCycles int64
	// Halts counts instructions aborted with a TrapError.
	Halts int64
	// Dropped counts trap records not appended to Node.IRQs because the
	// per-node trap log cap was reached (counters still accumulate).
	Dropped int64
}

// Add accumulates o into s.
func (s *TrapStats) Add(o TrapStats) {
	s.Invalid += o.Invalid
	s.DivZero += o.DivZero
	s.Overflow += o.Overflow
	s.Underflow += o.Underflow
	s.UnknownOp += o.UnknownOp
	s.ECCCorrected += o.ECCCorrected
	s.ECCUncorrectable += o.ECCUncorrectable
	s.Watchdog += o.Watchdog
	s.Quieted += o.Quieted
	s.Retries += o.Retries
	s.RetryCycles += o.RetryCycles
	s.Halts += o.Halts
	s.Dropped += o.Dropped
}

// Sub returns s − o (the delta across one Run).
func (s TrapStats) Sub(o TrapStats) TrapStats {
	return TrapStats{
		Invalid:          s.Invalid - o.Invalid,
		DivZero:          s.DivZero - o.DivZero,
		Overflow:         s.Overflow - o.Overflow,
		Underflow:        s.Underflow - o.Underflow,
		UnknownOp:        s.UnknownOp - o.UnknownOp,
		ECCCorrected:     s.ECCCorrected - o.ECCCorrected,
		ECCUncorrectable: s.ECCUncorrectable - o.ECCUncorrectable,
		Watchdog:         s.Watchdog - o.Watchdog,
		Quieted:          s.Quieted - o.Quieted,
		Retries:          s.Retries - o.Retries,
		RetryCycles:      s.RetryCycles - o.RetryCycles,
		Halts:            s.Halts - o.Halts,
		Dropped:          s.Dropped - o.Dropped,
	}
}

// Zero reports whether no condition was ever detected.
func (s TrapStats) Zero() bool { return s == TrapStats{} }

func (s TrapStats) String() string {
	return fmt.Sprintf("fp(invalid=%d divzero=%d overflow=%d underflow=%d) ecc(corrected=%d uncorrectable=%d) watchdog=%d quieted=%d retries=%d retrycycles=%d halts=%d",
		s.Invalid, s.DivZero, s.Overflow, s.Underflow,
		s.ECCCorrected, s.ECCUncorrectable, s.Watchdog, s.Quieted,
		s.Retries, s.RetryCycles, s.Halts)
}

// maxTrapRecords bounds the per-node trap log in Node.IRQs; a run that
// quiets millions of exceptions keeps its counters exact while the
// record log stays laptop-sized.
const maxTrapRecords = 1024

// recordTrap appends a trap interrupt to the node's IRQ log, counting
// (instead of storing) records past the cap. The unified observability
// layer sees every record regardless of the IRQ cap: its ring keeps
// the newest spans, complementing the IRQ log's oldest-first prefix.
func (n *Node) recordTrap(tr *Trap) {
	if o := n.Obs; o != nil {
		o.Event(n.ObsID, "sim", "trap", tr.At, tr.Kind.String(),
			map[string]int64{"element": tr.Element, "cycle": int64(tr.Cycle)})
	}
	if n.trapRecords >= maxTrapRecords {
		n.TrapCounters.Dropped++
		return
	}
	n.trapRecords++
	n.IRQs = append(n.IRQs, Interrupt{Cycle: tr.At, Trap: tr})
}

// countTrapKind bumps the per-kind counter.
func (n *Node) countTrapKind(k TrapKind) {
	n.Obs.Inc("sim.trap." + k.String())
	switch k {
	case TrapInvalid:
		n.TrapCounters.Invalid++
	case TrapDivZero:
		n.TrapCounters.DivZero++
	case TrapOverflow:
		n.TrapCounters.Overflow++
	case TrapUnderflow:
		n.TrapCounters.Underflow++
	case TrapUnknownOp:
		n.TrapCounters.UnknownOp++
	case TrapECC:
		n.TrapCounters.ECCUncorrectable++
	case TrapWatchdog:
		n.TrapCounters.Watchdog++
	}
}

// minNormal is the smallest positive normal float64; results below it
// (and above zero) are subnormal.
const minNormal = 0x1p-1022

// classifyFP decides whether one functional-unit application raised a
// *new* IEEE-754 exception. Non-finite values that merely propagate an
// already-non-finite operand are not new exceptions: the trap fired
// where the value was first produced (or the data arrived poisoned,
// which only the quiet policy lets stand).
func classifyFP(op arch.Op, a, b float64, arity int, v float64) (TrapKind, bool) {
	if math.IsNaN(v) {
		if math.IsNaN(a) || (arity >= 2 && math.IsNaN(b)) {
			return 0, false // propagation
		}
		return TrapInvalid, true
	}
	if math.IsInf(v, 0) {
		if math.IsInf(a, 0) || (arity >= 2 && math.IsInf(b, 0)) {
			return 0, false // propagation
		}
		switch op {
		case arch.OpDiv:
			if b == 0 {
				return TrapDivZero, true
			}
		case arch.OpRecip:
			if a == 0 {
				return TrapDivZero, true
			}
		}
		return TrapOverflow, true
	}
	if v != 0 && math.Abs(v) < minNormal {
		return TrapUnderflow, true
	}
	return 0, false
}

// --- Memory-plane ECC model. ---
//
// ECC events are injected per node, keyed by (plane, address), and
// fire once each on a DMA read of that word: a single-bit flip is
// corrected in flight (the word is delivered intact, the correction
// counted), a double-bit flip is uncorrectable and raises a TrapECC.
// Because events expire when they fire, a retried instruction re-reads
// the true word — the transient-fault recovery the retry policy
// exists for. Events are node-private state, so concurrent multi-node
// execution stays share-free.

// ECCFault is one seeded memory-plane event.
type ECCFault struct {
	Plane int
	Addr  int64
	// Double marks an uncorrectable double-bit flip; false is a
	// correctable single-bit flip.
	Double bool
}

// String renders the fault in the -ecc-faults spelling.
func (f ECCFault) String() string {
	kind := "single"
	if f.Double {
		kind = "double"
	}
	return fmt.Sprintf("%d:%d:%s", f.Plane, f.Addr, kind)
}

type eccKey struct {
	plane int
	addr  int64
}

// InjectECC arms seeded ECC events on the node's memory planes. Each
// event fires once, on the first DMA read of its word after arming. An
// event off the node's planes is a fault-plan diagnostic (R040).
func (n *Node) InjectECC(faults ...ECCFault) error {
	for _, f := range faults {
		if f.Plane < 0 || f.Plane >= len(n.Mem) {
			return diag.Errorf(diag.RuleFaultPlan, "sim: ECC fault %s: plane outside %d planes", f, len(n.Mem))
		}
		if f.Addr < 0 || f.Addr >= n.Cfg.PlaneWords() {
			return diag.Errorf(diag.RuleFaultPlan, "sim: ECC fault %s: address outside plane of %d words", f, n.Cfg.PlaneWords())
		}
		if n.ecc == nil {
			n.ecc = make(map[eccKey][]ECCFault)
		}
		k := eccKey{f.Plane, f.Addr}
		n.ecc[k] = append(n.ecc[k], f)
	}
	return nil
}

// takeECC consumes the next pending event at (plane, addr), if any.
func (n *Node) takeECC(plane int, addr int64) (ECCFault, bool) {
	k := eccKey{plane, addr}
	fs := n.ecc[k]
	if len(fs) == 0 {
		return ECCFault{}, false
	}
	f := fs[0]
	if len(fs) == 1 {
		delete(n.ecc, k)
	} else {
		n.ecc[k] = fs[1:]
	}
	return f, true
}

// ParseECCFaults parses a comma-separated event list, each event
// "plane:addr:single" or "plane:addr:double" (the nscsim -ecc-faults
// syntax, minus the leading rank the multi-node driver adds). Errors
// are fault-plan diagnostics (R040).
func ParseECCFaults(spec string) ([]ECCFault, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, nil
	}
	var out []ECCFault
	for _, tok := range strings.Split(spec, ",") {
		f, err := parseECCFault(strings.TrimSpace(tok))
		if err != nil {
			return nil, err
		}
		out = append(out, f)
	}
	return out, nil
}

func parseECCFault(tok string) (ECCFault, error) {
	var f ECCFault
	parts := strings.Split(tok, ":")
	if len(parts) != 3 {
		return f, diag.Errorf(diag.RuleFaultPlan, "sim: ECC fault %q: want plane:addr:single|double", tok)
	}
	var err error
	if f.Plane, err = strconv.Atoi(parts[0]); err != nil {
		return f, diag.Errorf(diag.RuleFaultPlan, "sim: ECC fault plane %q: %w", parts[0], err)
	}
	if f.Addr, err = strconv.ParseInt(parts[1], 10, 64); err != nil {
		return f, diag.Errorf(diag.RuleFaultPlan, "sim: ECC fault addr %q: %w", parts[1], err)
	}
	switch parts[2] {
	case "single":
	case "double":
		f.Double = true
	default:
		return f, diag.Errorf(diag.RuleFaultPlan, "sim: ECC fault kind %q: want single or double", parts[2])
	}
	return f, nil
}
