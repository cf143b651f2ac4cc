// Package multigrid implements the workload of the paper's reference
// [6] — Nosenchuck, Krist, Zang, "On Multigrid Methods for the
// Navier-Stokes Computer" — on the simulated NSC: a V-cycle for the
// 3-D Poisson equation whose smoothing sweeps, residual evaluation and
// coarse-grid correction all execute as visual-environment pipelines,
// with the grid-transfer operators (full-weighting restriction,
// trilinear prolongation) performed by the host, standing in for the
// memory-reformatting phases the paper's §3 says must happen "between
// phases of the computation".
//
// The smoother is damped Jacobi; the damping factor is folded into the
// mask array (mask = ω at interior points), so the smoothing pipeline
// is exactly the paper's Figure 11 diagram. Every level lives on the
// same node at a distinct VarBase, so the whole hierarchy occupies the
// same memory planes the single-grid solver uses, plus planes 4 (the
// residual r) and 5 (the correction e).
package multigrid

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/arch"
	"repro/internal/jacobi"
	"repro/internal/microcode"
	"repro/internal/pipeline"
	"repro/internal/sim"
)

// Extra planes used by the multigrid pipelines.
const (
	PlaneR = 4 // residual
	PlaneE = 5 // prolongated correction
)

// DefaultOmega is the damped-Jacobi factor; 6/7 is optimal for the
// 7-point 3-D Laplacian.
const DefaultOmega = 6.0 / 7.0

// Level is one grid of the hierarchy with its NSC instructions.
type Level struct {
	P *jacobi.Problem
	// BinMask is the 0/1 interior mask (P.Mask carries ω).
	BinMask []float64

	fwd, bwd *microcode.Instr // damped Jacobi sweeps u→v, v→u
	residual *microcode.Instr // r = mask·(f + (Σnb − 6u)/h²), maxabs reduce
	correct  *microcode.Instr // v = u + e
	copyVU   *microcode.Instr // u = v
}

// Solver is a V-cycle solver over a level hierarchy on one node.
type Solver struct {
	Cfg    arch.Config
	Node   *sim.Node
	Levels []*Level
	// Pre and Post are the smoothing sweeps around coarse-grid
	// correction; both must be even so each phase leaves the iterate in
	// the u plane.
	Pre, Post int
	Omega     float64
	Tol       float64
	MaxCycles int

	// CheckpointEvery, when positive, snapshots the fine-grid iterate
	// at every V-cycle boundary divisible by it (the starting boundary
	// excluded — it holds no progress). Only the finest u is live
	// across a boundary — every coarse grid is recomputed from it — so
	// snapshots stay one fine grid in size.
	CheckpointEvery int
	// CheckpointSink, when non-nil, receives every snapshot.
	CheckpointSink func(*Checkpoint) error
	// LastCheckpoint is the most recent snapshot taken.
	LastCheckpoint *Checkpoint
	// Restore, when non-nil, makes Run resume from this snapshot (in a
	// fresh solver over the same problem) instead of the initial guess.
	Restore *Checkpoint
}

// Checkpoint is a V-cycle boundary snapshot: the finest-level iterate
// and the cycle index that consumes it next. Restoring it into a fresh
// solver resumes to bit-identical results versus an uninterrupted run
// — the V-cycle recomputes all coarse state from the fine u.
type Checkpoint struct {
	Cycle int
	N     int
	U     []float64
}

// Snapshot captures the fine-grid iterate before V-cycle `cycle` runs.
func (s *Solver) Snapshot(cycle int) (*Checkpoint, error) {
	fine := s.Levels[0]
	u, err := s.Node.ReadWords(jacobi.PlaneU, fine.P.VarBase, fine.P.Cells())
	if err != nil {
		return nil, err
	}
	return &Checkpoint{Cycle: cycle, N: fine.P.N, U: u}, nil
}

// applyCheckpoint writes a snapshot's iterate back to the fine grid.
func (s *Solver) applyCheckpoint(ck *Checkpoint) error {
	fine := s.Levels[0]
	if ck.N != fine.P.N || len(ck.U) != fine.P.Cells() {
		return fmt.Errorf("multigrid: checkpoint N=%d (%d words) does not match fine grid N=%d (%d words)",
			ck.N, len(ck.U), fine.P.N, fine.P.Cells())
	}
	return s.Node.WriteWords(jacobi.PlaneU, fine.P.VarBase, ck.U)
}

// Result reports a multigrid solve.
type Result struct {
	U        []float64
	VCycles  int
	Residual float64
	// Converged reports the NSC residual flag.
	Converged bool
	Stats     sim.Stats
	// PlanCache reports the node's plan store. A V-cycle replays each
	// level's smoother/residual/correct pipelines every cycle, so the
	// decode-once engine compiles each distinct instruction exactly once
	// per solve.
	PlanCache sim.PlanCacheStats
	// Checkpoints counts V-cycle boundary snapshots taken.
	Checkpoints int
	// ResidualSeries holds the fine-grid residual after every V-cycle,
	// in order — the trajectory the distributed solver must reproduce
	// bit for bit.
	ResidualSeries []float64
	// Traps counts the exception/interrupt events raised during Run
	// (arm detection via Solver.Node.TrapCfg; zero when traps are off).
	Traps sim.TrapStats
}

// New builds a solver for an n×n×n fine grid (n = 2^k+1) with the
// given number of levels; each coarser grid halves the spacing.
func New(cfg arch.Config, n, levels int, tol float64, maxCycles int) (*Solver, error) {
	node, err := sim.NewNode(cfg)
	if err != nil {
		return nil, err
	}
	return NewOnNode(cfg, node, n, levels, tol, maxCycles, 0)
}

// NewOnNode builds the hierarchy on an existing node with its levels
// based at varBase, so a solver can share a node with other resident
// state — the distributed driver parks the coarse chain behind rank
// 0's fine-grid slab this way.
func NewOnNode(cfg arch.Config, node *sim.Node, n, levels int, tol float64, maxCycles int, varBase int64) (*Solver, error) {
	if levels < 1 {
		return nil, fmt.Errorf("multigrid: need at least one level")
	}
	s := &Solver{Cfg: cfg, Node: node, Pre: 2, Post: 2, Omega: DefaultOmega, Tol: tol, MaxCycles: maxCycles}
	pl := pipeline.New(node.Inv)

	base := varBase
	size := n
	h := 1 / float64(n-1)
	for l := 0; l < levels; l++ {
		if size < 3 {
			return nil, fmt.Errorf("multigrid: level %d grid %d too small; fewer levels", l, size)
		}
		if l > 0 && (size-1)*2+1 != prevSize(s) {
			return nil, fmt.Errorf("multigrid: fine grid %d is not 2·(coarse−1)+1; need n = 2^k+1", prevSize(s))
		}
		p := jacobi.NewModelProblem(size, tol, 1)
		p.H = h
		p.VarBase = base
		lv := &Level{P: p, BinMask: append([]float64(nil), p.Mask...)}
		// Damp the smoother by scaling the interior mask.
		for i, m := range p.Mask {
			p.Mask[i] = m * s.Omega
		}
		if l > 0 {
			// Coarse levels solve error equations: zero RHS until
			// restriction fills them, zero initial guess.
			for i := range p.F {
				p.F[i] = 0
			}
		}
		if err := buildLevel(pl, lv, tol); err != nil {
			return nil, fmt.Errorf("multigrid: level %d: %w", l, err)
		}
		s.Levels = append(s.Levels, lv)
		// Each level stores two arrays per plane slot at worst (the
		// ω-mask at VarBase plus the binary mask at VarBase+cells), so
		// stride levels by twice the cell count plus stream padding.
		base += int64(2*p.Cells() + 2*size*size)
		size = (size-1)/2 + 1
		h *= 2
	}
	// Load every level's arrays.
	for _, lv := range s.Levels {
		if err := lv.P.Load(node); err != nil {
			return nil, err
		}
		if err := node.WriteWords(jacobi.PlaneMask, lv.P.VarBase+int64(lv.P.Cells()), lv.BinMask); err != nil {
			return nil, err
		}
	}
	return s, nil
}

func prevSize(s *Solver) int { return s.Levels[len(s.Levels)-1].P.N }

// buildLevel programs the level's five instructions through the
// compile pipeline. It is a free function so the distributed driver can
// compile a slab level without a Solver around it; levels with equal
// scripts share one compile through pl's cache.
func buildLevel(pl *pipeline.Pipeline, lv *Level, tol float64) error {
	// Smoothing sweeps come straight from the paper's example.
	res, err := lv.P.Compile(pl)
	if err != nil {
		return err
	}
	ins, err := res.Instrs(0, 1)
	if err != nil {
		return err
	}
	lv.fwd, lv.bwd = ins[0], ins[1]
	if res, err = pl.CompileScript(auxScript(lv.P, tol)); err != nil {
		return err
	}
	if ins, err = res.Instrs(0, 1, 2); err != nil {
		return err
	}
	lv.residual, lv.correct, lv.copyVU = ins[0], ins[1], ins[2]
	return nil
}

// auxScript builds the residual, correction and copy pipelines for a
// level. The binary mask lives behind the ω-mask in the same plane.
func auxScript(p *jacobi.Problem, tol float64) string {
	n, nn := p.N, p.N*p.N
	cells := p.Cells()
	c := cells + nn
	base := p.VarBase
	inv := 1 / (p.H * p.H)
	var sb strings.Builder
	fmt.Fprintf(&sb, "doc mg-aux-%d\n", p.N)
	fmt.Fprintf(&sb, "var u plane=%d base=%d len=%d\n", jacobi.PlaneU, base, cells+nn)
	fmt.Fprintf(&sb, "var v plane=%d base=%d len=%d\n", jacobi.PlaneV, base, cells+nn)
	fmt.Fprintf(&sb, "var f plane=%d base=%d len=%d\n", jacobi.PlaneF, base, cells)
	fmt.Fprintf(&sb, "var mask1 plane=%d base=%d len=%d\n", jacobi.PlaneMask, base+int64(cells), cells)
	fmt.Fprintf(&sb, "var r plane=%d base=%d len=%d\n", PlaneR, base, cells)
	fmt.Fprintf(&sb, "var e plane=%d base=%d len=%d\n", PlaneE, base, cells)

	// Pipeline 0: r = mask1·((Σnb)/h² − 6u/h² + f), maxabs-reduced.
	fmt.Fprintf(&sb, "place memplane Mu at 1 6 plane=%d\n", jacobi.PlaneU)
	fmt.Fprintf(&sb, "dma Mu rd var=u stride=1 count=%d\n", c)
	fmt.Fprintf(&sb, "place memplane Mf at 1 16 plane=%d\n", jacobi.PlaneF)
	fmt.Fprintf(&sb, "dma Mf rd var=f stride=1 count=%d skip=%d\n", cells, nn)
	fmt.Fprintf(&sb, "place memplane Mm at 1 21 plane=%d\n", jacobi.PlaneMask)
	fmt.Fprintf(&sb, "dma Mm rd var=mask1 stride=1 count=%d skip=%d\n", cells, nn)
	fmt.Fprintf(&sb, "place memplane Mr at 82 12 plane=%d\n", PlaneR)
	fmt.Fprintf(&sb, "dma Mr wr var=r stride=1 count=%d skip=%d\n", cells, nn)
	sb.WriteString("place sdu Z at 15 2\n")
	fmt.Fprintf(&sb, "taps Z %d %d %d %d %d %d %d\n", nn-1, nn+1, nn-n, nn+n, 0, 2*nn, nn)
	sb.WriteString("place triplet T1 at 30 1\nplace triplet T2 at 30 12\nplace triplet T3 at 48 4\nplace triplet T4 at 64 8\n")
	sb.WriteString("op T1.u0 add\nop T1.u1 add\nop T1.u2 add\n")
	sb.WriteString("op T2.u0 add\nop T2.u1 add\n")
	fmt.Fprintf(&sb, "op T2.u2 mul constb=%.17g\n", inv)   // Σnb/h²
	fmt.Fprintf(&sb, "op T3.u0 mul constb=%.17g\n", 6*inv) // 6u/h²
	sb.WriteString("op T3.u1 sub\nop T3.u2 add\n")
	sb.WriteString("op T4.u0 mul\n")
	sb.WriteString("op T4.u2 maxabs reduce init=0\n")
	for _, w := range []string{
		"Mu.rd -> Z.in",
		"Z.t0 -> T1.u0.a", "Z.t1 -> T1.u0.b",
		"Z.t2 -> T1.u1.a", "Z.t3 -> T1.u1.b",
		"Z.t4 -> T1.u2.a", "Z.t5 -> T1.u2.b",
		"T1.u0.o -> T2.u0.a", "T1.u1.o -> T2.u0.b",
		"T1.u2.o -> T2.u1.a", "T2.u0.o -> T2.u1.b",
		"T2.u1.o -> T2.u2.a", // Σnb × 1/h²
		"Z.t6 -> T3.u0.a",    // u × 6/h²
		"T2.u2.o -> T3.u1.a", "T3.u0.o -> T3.u1.b",
		"T3.u1.o -> T3.u2.a", "Mf.rd -> T3.u2.b",
		"T3.u2.o -> T4.u0.a", "Mm.rd -> T4.u0.b",
		"T4.u0.o -> T4.u2.a",
		"T4.u0.o -> Mr.wr",
	} {
		fmt.Fprintf(&sb, "connect %s\n", w)
	}
	fmt.Fprintf(&sb, "compare T4.u2 lt %g flag=2\n", tol)

	// Pipeline 1: v = u + e.
	sb.WriteString("pipe new correct\n")
	fmt.Fprintf(&sb, "place memplane Mu at 1 2 plane=%d\n", jacobi.PlaneU)
	fmt.Fprintf(&sb, "dma Mu rd var=u stride=1 count=%d\n", cells)
	fmt.Fprintf(&sb, "place memplane Me at 1 8 plane=%d\n", PlaneE)
	fmt.Fprintf(&sb, "dma Me rd var=e stride=1 count=%d\n", cells)
	fmt.Fprintf(&sb, "place memplane Mv at 44 5 plane=%d\n", jacobi.PlaneV)
	fmt.Fprintf(&sb, "dma Mv wr var=v stride=1 count=%d\n", cells)
	sb.WriteString("place singlet S at 20 3\nop S.u0 add\n")
	sb.WriteString("connect Mu.rd -> S.u0.a\nconnect Me.rd -> S.u0.b\nconnect S.u0.o -> Mv.wr\n")

	// Pipeline 2: u = v (copy back after correction).
	sb.WriteString("pipe new copy\n")
	fmt.Fprintf(&sb, "place memplane Mv at 1 2 plane=%d\n", jacobi.PlaneV)
	fmt.Fprintf(&sb, "dma Mv rd var=v stride=1 count=%d\n", cells)
	fmt.Fprintf(&sb, "place memplane Mu at 44 2 plane=%d\n", jacobi.PlaneU)
	fmt.Fprintf(&sb, "dma Mu wr var=u stride=1 count=%d\n", cells)
	sb.WriteString("place singlet S at 20 2\nop S.u0 mov\n")
	sb.WriteString("connect Mv.rd -> S.u0.a\nconnect S.u0.o -> Mu.wr\n")
	return sb.String()
}

// smooth runs `sweeps` damped-Jacobi sweeps (even, ends in plane U).
func (s *Solver) smooth(l, sweeps int) error {
	lv := s.Levels[l]
	for i := 0; i < sweeps; i++ {
		in := lv.fwd
		if i%2 == 1 {
			in = lv.bwd
		}
		if err := s.Node.Exec(in); err != nil {
			return err
		}
	}
	return nil
}

// VCycle performs one V-cycle from the finest level down and back —
// the building block the distributed driver calls to run the coarse
// chain on rank 0 between slab phases.
func (s *Solver) VCycle() error { return s.vcycle(0) }

// vcycle performs one V-cycle at level l.
func (s *Solver) vcycle(l int) error {
	lv := s.Levels[l]
	if l == len(s.Levels)-1 {
		// Coarsest grid: a few extra sweeps act as the direct solve
		// (for a 3³ grid two sweeps are exact).
		return s.smooth(l, s.Pre+s.Post)
	}
	if err := s.smooth(l, s.Pre); err != nil {
		return err
	}
	if err := s.Node.Exec(lv.residual); err != nil {
		return err
	}
	// Host grid transfer: restrict residual to the coarse RHS and zero
	// the coarse iterate (the "relocate between phases" of §3).
	fineR, err := s.Node.ReadWords(PlaneR, lv.P.VarBase, lv.P.Cells())
	if err != nil {
		return err
	}
	coarse := s.Levels[l+1]
	cf := Restrict(fineR, lv.P.N, coarse.P.N)
	if err := s.Node.WriteWords(jacobi.PlaneF, coarse.P.VarBase, cf); err != nil {
		return err
	}
	if err := s.Node.WriteWords(jacobi.PlaneU, coarse.P.VarBase, make([]float64, coarse.P.Cells())); err != nil {
		return err
	}
	if err := s.vcycle(l + 1); err != nil {
		return err
	}
	cu, err := s.Node.ReadWords(jacobi.PlaneU, coarse.P.VarBase, coarse.P.Cells())
	if err != nil {
		return err
	}
	e := Prolong(cu, coarse.P.N, lv.P.N)
	if err := s.Node.WriteWords(PlaneE, lv.P.VarBase, e); err != nil {
		return err
	}
	if err := s.Node.Exec(lv.correct); err != nil {
		return err
	}
	if err := s.Node.Exec(lv.copyVU); err != nil {
		return err
	}
	return s.smooth(l, s.Post)
}

// Run iterates V-cycles until the finest residual (computed on the
// NSC, compared by the sequencer) drops below tolerance.
func (s *Solver) Run() (*Result, error) {
	fine := s.Levels[0]
	res := &Result{}
	trapBase := s.Node.TrapCounters
	start := 0
	if ck := s.Restore; ck != nil {
		if err := s.applyCheckpoint(ck); err != nil {
			return nil, err
		}
		start = ck.Cycle
		res.VCycles = ck.Cycle
		s.LastCheckpoint = ck
	}
	for cyc := start; cyc < s.MaxCycles; cyc++ {
		if s.CheckpointEvery > 0 && cyc%s.CheckpointEvery == 0 && cyc != start {
			ck, err := s.Snapshot(cyc)
			if err != nil {
				return nil, err
			}
			s.LastCheckpoint = ck
			res.Checkpoints++
			if s.CheckpointSink != nil {
				if err := s.CheckpointSink(ck); err != nil {
					return nil, fmt.Errorf("multigrid: checkpoint sink at cycle %d: %w", cyc, err)
				}
			}
		}
		if err := s.vcycle(0); err != nil {
			return nil, err
		}
		res.VCycles++
		if err := s.Node.Exec(fine.residual); err != nil {
			return nil, err
		}
		res.Residual = s.Node.RedReg[jacobi.ResidualFU]
		res.ResidualSeries = append(res.ResidualSeries, res.Residual)
		if s.Node.Flag(2) {
			res.Converged = true
			break
		}
	}
	u, err := s.Node.ReadWords(jacobi.PlaneU, fine.P.VarBase, fine.P.Cells())
	if err != nil {
		return nil, err
	}
	res.U = u
	res.Stats = s.Node.Stats
	res.PlanCache = s.Node.Store().Stats()
	res.Traps = s.Node.TrapCounters.Sub(trapBase)
	if !res.Converged {
		return res, fmt.Errorf("multigrid: no convergence in %d V-cycles (residual %g)", res.VCycles, res.Residual)
	}
	return res, nil
}

// Restrict applies 27-point full weighting from an nf³ grid to an nc³
// grid (nf = 2·nc − 1). Coarse boundary values are zero.
func Restrict(fine []float64, nf, nc int) []float64 {
	out := make([]float64, nc*nc*nc)
	at := func(i, j, k int) float64 {
		if i < 0 || j < 0 || k < 0 || i >= nf || j >= nf || k >= nf {
			return 0
		}
		return fine[i+j*nf+k*nf*nf]
	}
	for K := 1; K < nc-1; K++ {
		for J := 1; J < nc-1; J++ {
			for I := 1; I < nc-1; I++ {
				sum := 0.0
				for dk := -1; dk <= 1; dk++ {
					for dj := -1; dj <= 1; dj++ {
						for di := -1; di <= 1; di++ {
							w := 1.0 / 8
							if di != 0 {
								w /= 2
							}
							if dj != 0 {
								w /= 2
							}
							if dk != 0 {
								w /= 2
							}
							sum += w * at(2*I+di, 2*J+dj, 2*K+dk)
						}
					}
				}
				out[I+J*nc+K*nc*nc] = sum
			}
		}
	}
	return out
}

// Prolong applies trilinear interpolation from an nc³ grid to an nf³
// grid (nf = 2·nc − 1).
func Prolong(coarse []float64, nc, nf int) []float64 {
	out := make([]float64, nf*nf*nf)
	at := func(i, j, k int) float64 {
		if i < 0 || j < 0 || k < 0 || i >= nc || j >= nc || k >= nc {
			return 0
		}
		return coarse[i+j*nc+k*nc*nc]
	}
	for k := 0; k < nf; k++ {
		for j := 0; j < nf; j++ {
			for i := 0; i < nf; i++ {
				sum := 0.0
				for _, ck := range halves(k) {
					for _, cj := range halves(j) {
						for _, ci := range halves(i) {
							w := ci.w * cj.w * ck.w
							sum += w * at(ci.i, cj.i, ck.i)
						}
					}
				}
				out[i+j*nf+k*nf*nf] = sum
			}
		}
	}
	return out
}

type cw struct {
	i int
	w float64
}

// halves returns the coarse contributors of fine index i.
func halves(i int) []cw {
	if i%2 == 0 {
		return []cw{{i / 2, 1}}
	}
	return []cw{{i / 2, 0.5}, {i/2 + 1, 0.5}}
}

// ReferenceVCycle mirrors the solver on the host, bit for bit, for
// validation: same smoother order of operations, same transfers.
func (s *Solver) ReferenceVCycle(maxCycles int) ([]float64, int, float64, bool) {
	type hostLevel struct {
		p    *jacobi.Problem
		bin  []float64
		u, f []float64
	}
	levels := make([]*hostLevel, len(s.Levels))
	for i, lv := range s.Levels {
		levels[i] = &hostLevel{
			p:   lv.P,
			bin: lv.BinMask,
			u:   append([]float64(nil), lv.P.U0...),
			f:   append([]float64(nil), lv.P.F...),
		}
	}

	smooth := func(hl *hostLevel, sweeps int) {
		v := make([]float64, len(hl.u))
		for s := 0; s < sweeps; s++ {
			sweepHost(hl.p, hl.u, v, hl.f)
			hl.u, v = v, hl.u
		}
	}
	residual := func(hl *hostLevel) []float64 {
		return residualHost(hl.p, hl.u, hl.f, hl.bin)
	}

	var vc func(l int)
	vc = func(l int) {
		hl := levels[l]
		if l == len(levels)-1 {
			smooth(hl, s.Pre+s.Post)
			return
		}
		smooth(hl, s.Pre)
		r := residual(hl)
		coarse := levels[l+1]
		coarse.f = Restrict(r, hl.p.N, coarse.p.N)
		coarse.u = make([]float64, coarse.p.Cells())
		vc(l + 1)
		e := Prolong(coarse.u, coarse.p.N, hl.p.N)
		for i := range hl.u {
			hl.u[i] = hl.u[i] + e[i]
		}
		smooth(hl, s.Post)
	}

	fine := levels[0]
	cycles := 0
	res := math.Inf(1)
	converged := false
	for cyc := 0; cyc < maxCycles; cyc++ {
		vc(0)
		cycles++
		r := residual(fine)
		res = 0
		for _, v := range r {
			res = math.Max(res, math.Abs(v))
		}
		if res < s.Tol {
			converged = true
			break
		}
	}
	return fine.u, cycles, res, converged
}

// sweepHost mirrors the smoothing pipeline's arithmetic (the ω-scaled
// mask is already in p.Mask).
func sweepHost(p *jacobi.Problem, u, v, f []float64) {
	n, nn := p.N, p.N*p.N
	h2 := p.H * p.H
	at := func(g int) float64 {
		if g < 0 || g >= len(u) {
			return 0
		}
		return u[g]
	}
	for g := range u {
		a1 := at(g+1) + at(g-1)
		a2 := at(g+n) + at(g-n)
		a3 := at(g+nn) + at(g-nn)
		fh := f[g] * h2
		a4 := a1 + a2
		a5 := a3 + fh
		a6 := a4 + a5
		upd := a6 * (1.0 / 6.0)
		dif := upd - u[g]
		mdf := dif * p.Mask[g]
		v[g] = u[g] + mdf
	}
}

// residualHost mirrors the residual pipeline's arithmetic.
func residualHost(p *jacobi.Problem, u, f, bin []float64) []float64 {
	n, nn := p.N, p.N*p.N
	inv := 1 / (p.H * p.H)
	at := func(g int) float64 {
		if g < 0 || g >= len(u) {
			return 0
		}
		return u[g]
	}
	out := make([]float64, len(u))
	for g := range u {
		a1 := at(g+1) + at(g-1)
		a2 := at(g+n) + at(g-n)
		a3 := at(g+nn) + at(g-nn)
		s1 := a1 + a2
		s2 := a3 + s1
		m1 := s2 * inv
		m2 := u[g] * (6 * inv)
		d := m1 - m2
		r0 := d + f[g]
		out[g] = r0 * bin[g]
	}
	return out
}
