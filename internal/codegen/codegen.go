// Package codegen is the microcode generator of Figure 3: it consumes
// the semantic data structures created by the graphical editor (the
// diagram document), invokes the checker "to perform a thorough check
// of global constraints", assigns diagram icons to physical hardware,
// derives switch settings "by interrogating the connection tables built
// by the graphical editor" (§5), balances stream timing with
// register-file delays, and emits executable NSC microcode.
package codegen

import (
	"fmt"
	"strings"

	"repro/internal/arch"
	"repro/internal/checker"
	"repro/internal/diag"
	"repro/internal/diagram"
	"repro/internal/microcode"
)

// Generator translates diagram documents into microcode programs.
type Generator struct {
	Inv *arch.Inventory
	F   *microcode.Format
	Chk *checker.Checker
}

// New returns a generator (and its embedded checker) for the inventory.
func New(inv *arch.Inventory) *Generator {
	return &Generator{Inv: inv, F: microcode.MustFormat(inv.Cfg), Chk: checker.New(inv)}
}

// CheckError carries the checker diagnostics that aborted generation.
type CheckError struct {
	Diags []checker.Diagnostic
}

func (e *CheckError) Error() string {
	msgs := make([]string, 0, len(e.Diags))
	for _, d := range e.Diags {
		msgs = append(msgs, d.String())
	}
	return fmt.Sprintf("codegen: %d checker error(s):\n%s", len(e.Diags), strings.Join(msgs, "\n"))
}

// PipeInfo reports what one pipeline elaborated to.
type PipeInfo struct {
	Pipe      int
	VectorLen int64
	// FillCycles is the pipeline depth: cycles before the first result
	// reaches the deepest sink.
	FillCycles int
	// FUsUsed counts physical functional units carrying an operation.
	FUsUsed int
	// FLOPsPerElement is the floating-point work per vector element.
	FLOPsPerElement int
	// ALSMap records which physical ALS each ALS icon received.
	ALSMap map[diagram.IconID]arch.ALSID
	// SDUMap records physical shift/delay unit assignment.
	SDUMap map[diagram.IconID]int
	// Instr is the pipeline's standalone instruction, the one Pipeline
	// returns; Lower clones it into flow order.
	Instr *microcode.Instr
}

// Report aggregates generation results for a document.
type Report struct {
	Warnings []checker.Diagnostic
	Pipes    []PipeInfo
}

// elaboration is the working state for one pipeline.
type elaboration struct {
	g    *Generator
	doc  *diagram.Document
	p    *diagram.Pipeline
	an   *checker.Analysis
	in   *microcode.Instr
	info PipeInfo

	consts   map[float64]int
	padSrc   map[diagram.PadRef]arch.SourceID
	unitOf   map[diagram.IconID][]arch.FUID
	sduOf    map[diagram.IconID]int
	tapIndex map[diagram.PadRef]int
}

// Pipeline elaborates a single diagram into one microcode instruction
// (without sequencer fields, which belong to the control flow). The
// returned instruction has CondHalt set so it is runnable standalone.
func (g *Generator) Pipeline(doc *diagram.Document, p *diagram.Pipeline) (*microcode.Instr, *PipeInfo, error) {
	diags := g.Chk.CheckPipeline(doc, p)
	if es := checker.Errors(diags); len(es) > 0 {
		return nil, nil, &CheckError{Diags: es}
	}
	an, cyc := g.Chk.Analyze(doc, p)
	if len(cyc) > 0 {
		return nil, nil, &CheckError{Diags: cyc}
	}
	e := &elaboration{
		g: g, doc: doc, p: p, an: an, in: g.F.NewInstr(),
		info:   PipeInfo{Pipe: p.ID, VectorLen: an.VectorLen, ALSMap: map[diagram.IconID]arch.ALSID{}, SDUMap: map[diagram.IconID]int{}},
		consts: map[float64]int{}, padSrc: map[diagram.PadRef]arch.SourceID{},
		unitOf: map[diagram.IconID][]arch.FUID{}, sduOf: map[diagram.IconID]int{},
		tapIndex: map[diagram.PadRef]int{},
	}
	if err := e.assignHardware(); err != nil {
		return nil, nil, err
	}
	if err := e.emit(); err != nil {
		return nil, nil, err
	}
	e.in.SetSeq(microcode.Seq{Cond: microcode.CondHalt})
	if p.Compare != nil {
		if err := e.emitCompare(); err != nil {
			return nil, nil, err
		}
	}
	e.info.Instr = e.in
	return e.in, &e.info, nil
}

// assignHardware maps ALS icons to physical ALSs of the right kind and
// SDU icons to physical shift/delay units, in icon order.
func (e *elaboration) assignHardware() error {
	free := map[arch.ALSKind][]arch.ALSID{
		arch.Singlet: e.g.Inv.ALSByKind(arch.Singlet),
		arch.Doublet: e.g.Inv.ALSByKind(arch.Doublet),
		arch.Triplet: e.g.Inv.ALSByKind(arch.Triplet),
	}
	sduNext := 0
	for _, ic := range e.p.Icons {
		if kind, ok := ic.Kind.ALSKind(); ok {
			pool := free[kind]
			if len(pool) == 0 {
				return diag.Errorf(diag.RuleGenResource, "codegen: out of %ss for icon %q", kind, ic.Name)
			}
			als := pool[0]
			free[kind] = pool[1:]
			e.info.ALSMap[ic.ID] = als
			units := make([]arch.FUID, ic.Kind.ActiveUnits())
			for slot := range units {
				fu, err := e.g.Inv.UnitAt(als, slot)
				if err != nil {
					return diag.Errorf(diag.RuleGenResource, "codegen: %v", err)
				}
				units[slot] = fu.ID
			}
			e.unitOf[ic.ID] = units
			continue
		}
		if ic.Kind == diagram.IconSDU {
			if sduNext >= e.g.Inv.Cfg.ShiftDelayUnits {
				return diag.Errorf(diag.RuleGenResource, "codegen: out of shift/delay units for icon %q", ic.Name)
			}
			e.sduOf[ic.ID] = sduNext
			e.info.SDUMap[ic.ID] = sduNext
			sduNext++
		}
	}
	return nil
}

// constSlot interns a constant into the instruction's pool.
func (e *elaboration) constSlot(v float64) (int, error) {
	if k, ok := e.consts[v]; ok {
		return k, nil
	}
	k := len(e.consts)
	if k >= microcode.ConstPoolSize {
		return 0, diag.Errorf(diag.RuleGenResource, "codegen: more than %d distinct constants in one instruction", microcode.ConstPoolSize)
	}
	e.consts[v] = k
	e.in.SetConst(k, v)
	return k, nil
}

// sourceOf resolves a producing pad to its switch source port.
func (e *elaboration) sourceOf(pr diagram.PadRef) (arch.SourceID, error) {
	if s, ok := e.padSrc[pr]; ok {
		return s, nil
	}
	ic, err := e.p.Icon(pr.Icon)
	if err != nil {
		return arch.InvalidSource, err
	}
	cfg := e.g.Inv.Cfg
	var src arch.SourceID
	switch ic.Kind {
	case diagram.IconMemPlane:
		src = cfg.SrcMemRead(ic.Plane)
	case diagram.IconCache:
		src = cfg.SrcCacheRead(ic.Plane)
	case diagram.IconSDU:
		u := e.sduOf[ic.ID]
		t, ok := e.tapIndex[pr]
		if !ok {
			return arch.InvalidSource, diag.Errorf(diag.RuleGenStruct, "codegen: tap %s not configured", pr)
		}
		src = cfg.SrcSDUTap(u, t)
	default:
		slot, side, ok := diagram.UnitPad(pr.Pad)
		if !ok || side != 2 {
			return arch.InvalidSource, diag.Errorf(diag.RuleGenStruct, "codegen: %s is not a producing pad", pr)
		}
		src = cfg.SrcFUOut(e.unitOf[ic.ID][slot])
	}
	e.padSrc[pr] = src
	return src, nil
}

func (e *elaboration) emit() error {
	cfg := e.g.Inv.Cfg
	// Pre-register SDU tap indices: tap pad "t<i>" maps to physical
	// tap i directly (diagram taps are already physical positions).
	for _, ic := range e.p.Icons {
		if ic.Kind != diagram.IconSDU {
			continue
		}
		for t := range ic.Taps {
			pr := diagram.PadRef{Icon: ic.ID, Pad: fmt.Sprintf("t%d", t)}
			e.tapIndex[pr] = t
		}
	}

	// Function units: ops, operand bindings, reductions.
	for _, ic := range e.p.Icons {
		units, isALS := e.unitOf[ic.ID]
		if !isALS {
			continue
		}
		for slot, u := range ic.Units {
			if u.Op == arch.OpNop {
				continue
			}
			fu := units[slot]
			e.in.SetFUOp(fu, u.Op)
			e.info.FUsUsed++
			e.info.FLOPsPerElement += u.Op.Info().FLOPs
			outPad := diagram.PadRef{Icon: ic.ID, Pad: fmt.Sprintf("u%d.o", slot)}

			// Operand A.
			if wa := e.p.WireTo(diagram.PadRef{Icon: ic.ID, Pad: fmt.Sprintf("u%d.a", slot)}); wa != nil {
				src, err := e.sourceOf(wa.From)
				if err != nil {
					return err
				}
				e.in.Route(cfg.SnkFUIn(fu, 0), src)
				e.in.SetFUInput(fu, 0, microcode.InSwitch, 0, e.an.HWDelayA[outPad])
			} else if u.ConstA != nil {
				k, err := e.constSlot(*u.ConstA)
				if err != nil {
					return err
				}
				e.in.SetFUInput(fu, 0, microcode.InConst, k, 0)
			}

			// Operand B.
			switch {
			case u.Reduce:
				k, err := e.constSlot(u.RedInit)
				if err != nil {
					return err
				}
				e.in.SetFUInput(fu, 1, microcode.InFeedback, 0, 0)
				e.in.SetFUReduce(fu, true, k)
			default:
				if wb := e.p.WireTo(diagram.PadRef{Icon: ic.ID, Pad: fmt.Sprintf("u%d.b", slot)}); wb != nil {
					src, err := e.sourceOf(wb.From)
					if err != nil {
						return err
					}
					e.in.Route(cfg.SnkFUIn(fu, 1), src)
					e.in.SetFUInput(fu, 1, microcode.InSwitch, 0, e.an.HWDelayB[outPad])
				} else if u.ConstB != nil {
					k, err := e.constSlot(*u.ConstB)
					if err != nil {
						return err
					}
					e.in.SetFUInput(fu, 1, microcode.InConst, k, 0)
				}
			}
		}
	}

	// Shift/delay units.
	for _, ic := range e.p.Icons {
		if ic.Kind != diagram.IconSDU {
			continue
		}
		u := e.sduOf[ic.ID]
		if w := e.p.WireTo(diagram.PadRef{Icon: ic.ID, Pad: "in"}); w != nil {
			src, err := e.sourceOf(w.From)
			if err != nil {
				return err
			}
			e.in.Route(cfg.SnkSDUIn(u), src)
			e.in.SetSDU(u, true, ic.Taps)
		}
	}

	// DMA channels and sink routing.
	for _, ic := range e.p.Icons {
		switch ic.Kind {
		case diagram.IconMemPlane:
			if ic.RdDMA != nil {
				addr, err := e.resolveAddr(ic, ic.RdDMA)
				if err != nil {
					return err
				}
				e.in.SetMemDMA(ic.Plane, microcode.MemDMA{
					Enable: true, Write: false, Addr: addr,
					Stride: ic.RdDMA.Stride, Count: ic.RdDMA.Count, Skip: ic.RdDMA.Skip,
				})
			}
			if ic.WrDMA != nil {
				w := e.p.WireTo(diagram.PadRef{Icon: ic.ID, Pad: "wr"})
				if w == nil {
					return diag.Errorf(diag.RuleGenStruct, "codegen: %s write DMA without a wire", ic.Name)
				}
				src, err := e.sourceOf(w.From)
				if err != nil {
					return err
				}
				addr, err := e.resolveAddr(ic, ic.WrDMA)
				if err != nil {
					return err
				}
				e.in.Route(cfg.SnkMemWrite(ic.Plane), src)
				e.in.SetMemDMA(ic.Plane, microcode.MemDMA{
					Enable: true, Write: true, Addr: addr,
					Stride: ic.WrDMA.Stride, Count: ic.WrDMA.Count, Skip: ic.WrDMA.Skip,
					Start: e.an.L[w.From],
				})
			}
		case diagram.IconCache:
			if ic.RdDMA != nil {
				e.in.SetCacheDMA(ic.Plane, microcode.CacheDMA{
					Enable: true, Write: false, Buf: ic.RdDMA.Buf, Addr: ic.RdDMA.Offset,
					Stride: ic.RdDMA.Stride, Count: ic.RdDMA.Count, Skip: ic.RdDMA.Skip,
					Swap: ic.RdDMA.Swap,
				})
			}
			if ic.WrDMA != nil {
				w := e.p.WireTo(diagram.PadRef{Icon: ic.ID, Pad: "wr"})
				if w == nil {
					return diag.Errorf(diag.RuleGenStruct, "codegen: %s write DMA without a wire", ic.Name)
				}
				src, err := e.sourceOf(w.From)
				if err != nil {
					return err
				}
				e.in.Route(cfg.SnkCacheWrite(ic.Plane), src)
				e.in.SetCacheDMA(ic.Plane, microcode.CacheDMA{
					Enable: true, Write: true, Buf: ic.WrDMA.Buf, Addr: ic.WrDMA.Offset,
					Stride: ic.WrDMA.Stride, Count: ic.WrDMA.Count, Skip: ic.WrDMA.Skip,
					Start: e.an.L[w.From], Swap: ic.WrDMA.Swap,
				})
			}
		}
	}

	// Fill latency: deepest epoch among sink drivers.
	fill := 0
	for _, ic := range e.p.Icons {
		if ic.Kind == diagram.IconMemPlane || ic.Kind == diagram.IconCache {
			if w := e.p.WireTo(diagram.PadRef{Icon: ic.ID, Pad: "wr"}); w != nil {
				if l := e.an.L[w.From]; l > fill {
					fill = l
				}
			}
		}
	}
	if fill == 0 {
		fill = e.an.MaxEpoch
	}
	e.info.FillCycles = fill
	return nil
}

// resolveAddr converts a DMA spec's variable+offset into a plane word
// address.
func (e *elaboration) resolveAddr(ic *diagram.Icon, spec *diagram.DMASpec) (int64, error) {
	if spec.Var == "" {
		return spec.Offset, nil
	}
	v, ok := e.doc.Decl(spec.Var)
	if !ok {
		return 0, diag.Errorf(diag.RuleGenStruct, "codegen: variable %q undeclared", spec.Var)
	}
	return v.Base + spec.Offset, nil
}

func (e *elaboration) emitCompare() error {
	cmp := e.p.Compare
	units := e.unitOf[cmp.Icon]
	k, err := e.constSlot(cmp.Threshold)
	if err != nil {
		return err
	}
	var op uint64
	switch cmp.Op {
	case "lt":
		op = microcode.CmpLT
	case "le":
		op = microcode.CmpLE
	case "gt":
		op = microcode.CmpGT
	case "ge":
		op = microcode.CmpGE
	default:
		return diag.Errorf(diag.RuleGenStruct, "codegen: compare op %q", cmp.Op)
	}
	s := e.in.SeqOf()
	s.CmpEnable = true
	s.CmpFU = units[cmp.Slot]
	s.CmpConst = k
	s.CmpOp = op
	s.CmpFlag = cmp.Flag
	e.in.SetSeq(s)
	return nil
}

// Document generates the full program: one instruction per flow op
// (pipelines may be referenced several times), with sequencer fields
// realizing the control-flow region. A document without flow ops
// degenerates to executing its pipelines in order and halting.
//
// Document is the composition of the three back-end pipeline passes —
// the document check, Lower, and Validate — kept as one call for
// callers that do not need the passes individually, and as the
// reference the pipeline package's compiles are checked against.
func (g *Generator) Document(doc *diagram.Document) (*microcode.Program, *Report, error) {
	docDiags := g.Chk.CheckDocument(doc)
	if es := checker.Errors(docDiags); len(es) > 0 {
		return nil, nil, &CheckError{Diags: es}
	}
	prog, rep, err := g.Lower(doc)
	if err != nil {
		return nil, nil, err
	}
	rep.Warnings = docDiags
	if err := g.Validate(prog); err != nil {
		return nil, nil, err
	}
	return prog, rep, nil
}

// Validate is the validate pass: the generated program through the
// microcode format's structural validator, reported as a typed
// diagnostic on failure.
func (g *Generator) Validate(prog *microcode.Program) error {
	if err := prog.Validate(); err != nil {
		return diag.Errorf(diag.RuleGenStruct, "codegen: generated program invalid: %w", err)
	}
	return nil
}

// Lower is the codegen pass alone: elaborate an already-checked
// document into a microcode program, without re-running the document
// check or the final program validation. The caller fills the report's
// Warnings.
func (g *Generator) Lower(doc *diagram.Document) (*microcode.Program, *Report, error) {
	rep := &Report{}

	flow := doc.Flow
	if len(flow) == 0 {
		for i := range doc.Pipes {
			flow = append(flow, diagram.FlowOp{Pipe: i})
		}
		if len(flow) == 0 {
			return nil, nil, diag.Errorf(diag.RuleFlowGen, "codegen: document %q has no pipelines", doc.Name)
		}
		flow[len(flow)-1].Cond = diagram.CondHalt
	}

	// Elaborate each referenced pipeline once, in first-reference order.
	instrs := map[int]*microcode.Instr{}
	for _, op := range flow {
		if op.Pipe < 0 || instrs[op.Pipe] != nil {
			continue
		}
		p, err := doc.Pipe(op.Pipe)
		if err != nil {
			return nil, nil, err
		}
		in, info, err := g.Pipeline(doc, p)
		if err != nil {
			return nil, nil, err
		}
		instrs[op.Pipe] = in
		rep.Pipes = append(rep.Pipes, *info)
	}

	labels := map[string]int{}
	for i, op := range flow {
		if op.Label != "" {
			labels[op.Label] = i
		}
	}
	prog := microcode.NewProgram(g.F)
	for i, op := range flow {
		var in *microcode.Instr
		if op.Pipe >= 0 {
			in = instrs[op.Pipe].Clone()
		} else {
			in = g.F.NewInstr()
		}
		s := in.SeqOf()
		s.Flag = op.Flag
		switch op.Cond {
		case diagram.CondHalt:
			s.Cond = microcode.CondHalt
		case diagram.CondAlways:
			s.Cond = microcode.CondAlways
		case diagram.CondFlagSet:
			s.Cond = microcode.CondFlagSet
		case diagram.CondFlagClear:
			s.Cond = microcode.CondFlagClear
		case diagram.CondLoop:
			s.Cond = microcode.CondLoop
		}
		s.Ctr = op.Ctr
		s.CtrLoad = op.CtrLoad
		s.CtrValue = op.CtrValue
		next := i + 1
		if op.Next != "" {
			next = labels[op.Next]
		}
		if next >= len(flow) && op.Cond != diagram.CondHalt {
			// Falling off the end halts.
			if op.Cond == diagram.CondAlways {
				s.Cond = microcode.CondHalt
				next = i
			} else {
				return nil, nil, diag.Errorf(diag.RuleFlowGen, "codegen: flow op %d falls off the end of the program", i)
			}
		}
		s.Next = next
		if op.Branch != "" {
			s.Branch = labels[op.Branch]
		}
		p, err := doc.Pipe(op.Pipe)
		if err == nil && p.IRQ {
			s.IRQ = true
		}
		in.SetSeq(s)
		prog.Append(in)
	}
	return prog, rep, nil
}
