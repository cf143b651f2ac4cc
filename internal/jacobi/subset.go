package jacobi

import (
	"fmt"
	"strings"

	"repro/internal/arch"
	"repro/internal/diagram"
	"repro/internal/editor"
	"repro/internal/pipeline"
	"repro/internal/sim"
)

// Subset-model solver (experiment A5). The paper's conclusions suggest
// "a simpler architectural model, perhaps a subset of the NSC. The
// tradeoff here is between performance and programmability." The
// arch.Subset machine has eight float-only singlets and no shift/delay
// units, so the six neighbour streams cannot be peeled off one memory
// stream: the program must keep EIGHT COPIES of u — one per plane —
// exactly the "multiple copies of arrays" §3 predicts, and the sweep
// splits into three instructions (stencil, blend+residual, broadcast
// of the new iterate back to all copies).
//
// With no min/max circuitry the convergence test uses an L1 residual
// (sum of |change|) instead of the full model's max-abs.

// Subset plane assignment.
const (
	subsetPlaneMask  = 8
	subsetPlaneT     = 9  // stencil partial result
	subsetPlaneT2    = 10 // blended new iterate
	subsetPlaneF     = 11
	subsetCopyPlanes = 8 // u copies in planes 0..7
)

// SubsetScript emits the editor command script for the three-phase
// subset-model sweep.
func (p *Problem) SubsetScript() string {
	n, nn := p.N, p.N*p.N
	cells := p.Cells()
	h2 := p.H * p.H
	var sb strings.Builder
	fmt.Fprintf(&sb, "doc jacobi3d-subset-%dx%dx%d\n", n, n, p.Nz)
	for i := 0; i < subsetCopyPlanes; i++ {
		fmt.Fprintf(&sb, "var u%d plane=%d base=0 len=%d\n", i, i, cells+2*nn)
	}
	fmt.Fprintf(&sb, "var mask plane=%d base=0 len=%d\n", subsetPlaneMask, cells)
	fmt.Fprintf(&sb, "var t plane=%d base=0 len=%d\n", subsetPlaneT, cells)
	fmt.Fprintf(&sb, "var t2 plane=%d base=0 len=%d\n", subsetPlaneT2, cells)
	fmt.Fprintf(&sb, "var f plane=%d base=0 len=%d\n", subsetPlaneF, cells)

	// --- Pipeline 0: stencil partial sums into t. ---
	offsets := []int{1, -1, n, -n, nn, -nn}
	for i, o := range offsets {
		fmt.Fprintf(&sb, "place memplane M%d at 1 %d plane=%d\n", i, 1+5*i, i)
		fmt.Fprintf(&sb, "dma M%d rd var=u%d offset=%d stride=1 count=%d\n", i, i, nn+o, cells)
	}
	fmt.Fprintf(&sb, "place memplane Mf at 1 31 plane=%d\n", subsetPlaneF)
	fmt.Fprintf(&sb, "dma Mf rd var=f stride=1 count=%d\n", cells)
	fmt.Fprintf(&sb, "place memplane Mt at 76 14 plane=%d\n", subsetPlaneT)
	fmt.Fprintf(&sb, "dma Mt wr var=t stride=1 count=%d\n", cells)
	for i, nm := range []string{"Sa1", "Sa2", "Sa3", "Sfh", "Sa4", "Sa5", "Sa6", "Supd"} {
		fmt.Fprintf(&sb, "place singlet %s at %d %d\n", nm, 20+14*(i%4), 1+8*(i/4))
	}
	sb.WriteString("op Sa1.u0 add\nop Sa2.u0 add\nop Sa3.u0 add\n")
	fmt.Fprintf(&sb, "op Sfh.u0 mul constb=%g\n", h2)
	sb.WriteString("op Sa4.u0 add\nop Sa5.u0 add\nop Sa6.u0 add\n")
	fmt.Fprintf(&sb, "op Supd.u0 mul constb=%g\n", 1.0/6.0)
	for _, w := range []string{
		"M0.rd -> Sa1.u0.a", "M1.rd -> Sa1.u0.b",
		"M2.rd -> Sa2.u0.a", "M3.rd -> Sa2.u0.b",
		"M4.rd -> Sa3.u0.a", "M5.rd -> Sa3.u0.b",
		"Mf.rd -> Sfh.u0.a",
		"Sa1.u0.o -> Sa4.u0.a", "Sa2.u0.o -> Sa4.u0.b",
		"Sa3.u0.o -> Sa5.u0.a", "Sfh.u0.o -> Sa5.u0.b",
		"Sa4.u0.o -> Sa6.u0.a", "Sa5.u0.o -> Sa6.u0.b",
		"Sa6.u0.o -> Supd.u0.a",
		"Supd.u0.o -> Mt.wr",
	} {
		fmt.Fprintf(&sb, "connect %s\n", w)
	}

	// --- Pipeline 1: blend with the centre copy, L1 residual. ---
	sb.WriteString("pipe new blend\n")
	fmt.Fprintf(&sb, "place memplane Mt at 1 1 plane=%d\n", subsetPlaneT)
	fmt.Fprintf(&sb, "dma Mt rd var=t stride=1 count=%d\n", cells)
	fmt.Fprintf(&sb, "place memplane Mc at 1 7 plane=7\n")
	fmt.Fprintf(&sb, "dma Mc rd var=u7 offset=%d stride=1 count=%d\n", nn, cells)
	fmt.Fprintf(&sb, "place memplane Mm at 1 13 plane=%d\n", subsetPlaneMask)
	fmt.Fprintf(&sb, "dma Mm rd var=mask stride=1 count=%d\n", cells)
	fmt.Fprintf(&sb, "place memplane Mo at 76 7 plane=%d\n", subsetPlaneT2)
	fmt.Fprintf(&sb, "dma Mo wr var=t2 stride=1 count=%d\n", cells)
	for i, nm := range []string{"Sdif", "Smdf", "Sout", "Sabs", "Sres"} {
		fmt.Fprintf(&sb, "place singlet %s at %d %d\n", nm, 20+14*(i%4), 1+8*(i/4))
	}
	sb.WriteString("op Sdif.u0 sub\nop Smdf.u0 mul\nop Sout.u0 add\nop Sabs.u0 abs\n")
	sb.WriteString("op Sres.u0 add reduce init=0\n")
	for _, w := range []string{
		"Mt.rd -> Sdif.u0.a", "Mc.rd -> Sdif.u0.b",
		"Sdif.u0.o -> Smdf.u0.a", "Mm.rd -> Smdf.u0.b",
		"Mc.rd -> Sout.u0.a", "Smdf.u0.o -> Sout.u0.b",
		"Smdf.u0.o -> Sabs.u0.a",
		"Sabs.u0.o -> Sres.u0.a",
		"Sout.u0.o -> Mo.wr",
	} {
		fmt.Fprintf(&sb, "connect %s\n", w)
	}
	fmt.Fprintf(&sb, "compare Sres.u0 lt %g flag=1\n", p.Tol)

	// --- Pipeline 2: broadcast the new iterate to every copy. ---
	sb.WriteString("pipe new broadcast\n")
	fmt.Fprintf(&sb, "place memplane Mo at 1 4 plane=%d\n", subsetPlaneT2)
	fmt.Fprintf(&sb, "dma Mo rd var=t2 stride=1 count=%d\n", cells)
	sb.WriteString("place singlet Smov at 20 3\nop Smov.u0 mov\nconnect Mo.rd -> Smov.u0.a\n")
	for i := 0; i < subsetCopyPlanes; i++ {
		fmt.Fprintf(&sb, "place memplane W%d at %d %d plane=%d\n", i, 40+18*(i%2), 1+5*(i/2), i)
		fmt.Fprintf(&sb, "dma W%d wr var=u%d offset=%d stride=1 count=%d\n", i, i, nn, cells)
		fmt.Fprintf(&sb, "connect Smov.u0.o -> W%d.wr\n", i)
	}

	// --- Control flow. ---
	sb.WriteString("flow label=stencil pipe=0\n")
	sb.WriteString("flow label=blend pipe=1 cond=set flag=1 branch=done\n")
	sb.WriteString("flow label=bcast pipe=2 next=stencil\n")
	sb.WriteString("flow label=done pipe=-1 cond=halt\n")
	return sb.String()
}

// SubsetValidate checks the instance fits the subset machine.
func (p *Problem) SubsetValidate(cfg arch.Config) error {
	if p.N < 3 || p.Nz < 3 {
		return fmt.Errorf("jacobi: grid too small")
	}
	if cfg.Singlets < 8 {
		return fmt.Errorf("jacobi: subset solver needs 8 singlets, machine has %d", cfg.Singlets)
	}
	if cfg.MemPlanes < 12 {
		return fmt.Errorf("jacobi: subset solver needs 12 planes, machine has %d", cfg.MemPlanes)
	}
	return nil
}

// SubsetReference mirrors the subset program on the host: identical
// arithmetic with the L1 stopping metric.
func (p *Problem) SubsetReference() *RefResult {
	u := append([]float64(nil), p.U0...)
	v := make([]float64, p.Cells())
	res := &RefResult{}
	for it := 0; it < p.MaxIter; it++ {
		l1 := p.subsetSweep(u, v)
		u, v = v, u
		res.Iters++
		res.Residuals = append(res.Residuals, l1)
		if l1 < p.Tol {
			res.Converged = true
			break
		}
	}
	res.U = u
	return res
}

func (p *Problem) subsetSweep(u, v []float64) float64 {
	n, nn := p.N, p.N*p.N
	h2 := p.H * p.H
	at := func(g int) float64 {
		if g < 0 || g >= len(u) {
			return 0
		}
		return u[g]
	}
	l1 := 0.0
	for g := range u {
		a1 := at(g+1) + at(g-1)
		a2 := at(g+n) + at(g-n)
		a3 := at(g+nn) + at(g-nn)
		fh := p.F[g] * h2
		a4 := a1 + a2
		a5 := a3 + fh
		upd := (a4 + a5) * (1.0 / 6.0)
		dif := upd - u[g]
		mdf := dif * p.Mask[g]
		v[g] = u[g] + mdf
		if mdf < 0 {
			l1 -= mdf
		} else {
			l1 += mdf
		}
	}
	return l1
}

// SubsetBuild programs the subset machine through the editor.
func (p *Problem) SubsetBuild(cfg arch.Config) (*diagram.Document, *editor.Editor, error) {
	if err := p.SubsetValidate(cfg); err != nil {
		return nil, nil, err
	}
	inv, err := arch.NewInventory(cfg)
	if err != nil {
		return nil, nil, err
	}
	ed := editor.New(inv, "jacobi3d-subset")
	if _, err := ed.ExecScript(strings.NewReader(p.SubsetScript()), false); err != nil {
		return nil, nil, fmt.Errorf("jacobi: subset script: %w", err)
	}
	return ed.Doc, ed, nil
}

// SubsetLoad writes the problem into the subset plane layout: eight
// copies of u, each offset by N² within its padded plane array.
func (p *Problem) SubsetLoad(n *sim.Node) error {
	nn := int64(p.N * p.N)
	for i := 0; i < subsetCopyPlanes; i++ {
		if err := n.WriteWords(i, nn, p.U0); err != nil {
			return err
		}
	}
	if err := n.WriteWords(subsetPlaneMask, 0, p.Mask); err != nil {
		return err
	}
	return n.WriteWords(subsetPlaneF, 0, p.F)
}

// SubsetRun executes the three-instruction-per-sweep subset solve.
func (p *Problem) SubsetRun(cfg arch.Config) (*Result, error) {
	if err := p.SubsetValidate(cfg); err != nil {
		return nil, err
	}
	node, err := sim.NewNode(cfg)
	if err != nil {
		return nil, err
	}
	comp, err := pipeline.New(node.Inv).CompileScript(p.SubsetScript())
	if err != nil {
		return nil, fmt.Errorf("jacobi: subset: %w", err)
	}
	prog, rep := comp.Prog, comp.Rep
	if err := p.SubsetLoad(node); err != nil {
		return nil, err
	}
	res, err := node.Run(prog, int64(3*p.MaxIter+4))
	if err != nil {
		return nil, err
	}
	out := &Result{Stats: node.Stats, MFLOPS: node.Stats.MFLOPS(cfg.ClockHz),
		PlanCache: node.Store().Stats()}
	for _, pi := range rep.Pipes {
		if pi.FillCycles > out.FillCycles {
			out.FillCycles = pi.FillCycles
		}
	}
	// Each full sweep dispatches 3 instructions; the final sweep stops
	// after the blend, and the halt op adds one more.
	out.Iterations = int(res.Executed) / 3
	out.Converged = node.Flag(1)
	u, err := node.ReadWords(subsetPlaneT2, 0, p.Cells())
	if err != nil {
		return nil, err
	}
	out.U = u
	// Sres is the only reduction unit: the 5th singlet of pipeline 1
	// maps to physical singlet index 4 (FU 4 on the subset machine).
	out.Residual = node.RedReg[4]
	return out, nil
}
