// Package jacobi implements the paper's worked example: a point Jacobi
// update for the 3-D Poisson equation on a uniform grid with a residual
// convergence check (Equation 1, Figures 2 and 11):
//
//	v[i,j,k] = (h²·f[i,j,k] + u[i±1,j,k] + u[i,j±1,k] + u[i,j,k±1]) / 6
//
// The package provides the scalar reference solver (the golden model),
// a generator that programs the NSC through the visual environment's
// command language — exactly as the paper's user would, with one
// shift/delay unit turning the single memory stream of u into the six
// neighbour streams plus the centre tap — and a driver that runs the
// generated microcode on the node simulator until the residual
// interrupt fires.
//
// Boundary handling uses a mask array (1 at interior points, 0 on the
// boundary): v = u + mask·(update − u). Pipelines have no branches, so
// this blend is how a real NSC program would preserve Dirichlet
// boundary values; it also makes the residual reduction exact, because
// masked points contribute |0|.
package jacobi

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/arch"
	"repro/internal/diagram"
	"repro/internal/editor"
	"repro/internal/pipeline"
	"repro/internal/sim"
)

// Plane assignment for the solver's variables.
const (
	PlaneU    = 0
	PlaneF    = 1
	PlaneMask = 2
	PlaneV    = 3
)

// ResidualFU is the reduce unit that holds a sweep's max-abs residual:
// the script places it in T4 slot 2, the fourth triplet's third unit,
// which is FU 11 under the default layout.
const ResidualFU arch.FUID = 11

// Problem is one 3-D Poisson instance on an N×N×Nz grid (boundary
// included), with Dirichlet zero boundary conditions. Nz normally
// equals N; the hypercube layer uses flat slabs (Nz = planes-per-node
// + 2 ghost planes) for domain decomposition.
type Problem struct {
	N       int
	Nz      int
	H       float64
	Tol     float64
	MaxIter int
	// F is the right-hand side, U0 the initial guess (boundary values
	// embedded and preserved), Mask the interior indicator (scaling the
	// mask by a damping factor ω yields damped Jacobi, which multigrid
	// uses as its smoother).
	F    []float64
	U0   []float64
	Mask []float64

	// VarBase offsets every variable within its plane, letting several
	// problem instances (e.g. multigrid levels) coexist on one node.
	VarBase int64

	// Trap selects the node's exception policy for Run (zero value:
	// traps off, matching the paper's uninstrumented machine).
	Trap arch.TrapConfig
}

// Index flattens (i, j, k) with i fastest: i + j·N + k·N².
func (p *Problem) Index(i, j, k int) int { return i + j*p.N + k*p.N*p.N }

// Cells returns N·N·Nz.
func (p *Problem) Cells() int { return p.N * p.N * p.Nz }

// NewModelProblem returns the standard test instance: f ≡ 1 inside the
// unit cube, u₀ ≡ 0, h = 1/(N−1).
func NewModelProblem(n int, tol float64, maxIter int) *Problem {
	p := &Problem{N: n, Nz: n, H: 1 / float64(n-1), Tol: tol, MaxIter: maxIter}
	cells := p.Cells()
	p.F = make([]float64, cells)
	p.U0 = make([]float64, cells)
	p.Mask = make([]float64, cells)
	for k := 0; k < n; k++ {
		for j := 0; j < n; j++ {
			for i := 0; i < n; i++ {
				g := p.Index(i, j, k)
				p.F[g] = 1
				if i > 0 && i < n-1 && j > 0 && j < n-1 && k > 0 && k < p.Nz-1 {
					p.Mask[g] = 1
				}
			}
		}
	}
	return p
}

// Validate checks the instance is well formed and fits the machine.
func (p *Problem) Validate(cfg arch.Config) error {
	if p.N < 3 || p.Nz < 3 {
		return fmt.Errorf("jacobi: grid %dx%dx%d too small (need N, Nz ≥ 3)", p.N, p.N, p.Nz)
	}
	nn := p.N * p.N
	if cfg.ShiftDelayUnits < 1 {
		return fmt.Errorf("jacobi: machine has no shift/delay units; use the subset-model path")
	}
	if 2*nn > cfg.SDUBufferLen {
		return fmt.Errorf("jacobi: tap delay 2N²=%d exceeds SDU buffer %d", 2*nn, cfg.SDUBufferLen)
	}
	if cfg.SDUTaps < 7 {
		return fmt.Errorf("jacobi: need 7 SDU taps, machine has %d", cfg.SDUTaps)
	}
	if len(p.F) != p.Cells() || len(p.U0) != p.Cells() || len(p.Mask) != p.Cells() {
		return fmt.Errorf("jacobi: array lengths do not match N·N·Nz=%d", p.Cells())
	}
	return nil
}

// RefResult is the outcome of the scalar reference solver.
type RefResult struct {
	U         []float64
	Iters     int
	Residuals []float64
	Converged bool
}

// Reference runs point Jacobi on the host, bit-for-bit mirroring the
// pipeline's arithmetic (same blend, same residual), so the simulator
// result can be compared exactly.
func (p *Problem) Reference() *RefResult {
	cells := p.Cells()
	u := append([]float64(nil), p.U0...)
	v := make([]float64, cells)
	res := &RefResult{}
	for it := 0; it < p.MaxIter; it++ {
		maxRes := p.sweep(u, v)
		u, v = v, u
		res.Iters++
		res.Residuals = append(res.Residuals, maxRes)
		if maxRes < p.Tol {
			res.Converged = true
			break
		}
	}
	res.U = u
	return res
}

// sweep computes one Jacobi update u → v and returns the masked
// max-abs residual, in the exact operation order of the pipeline.
func (p *Problem) sweep(u, v []float64) float64 {
	n, nn := p.N, p.N*p.N
	h2 := p.H * p.H
	maxRes := 0.0
	at := func(g int) float64 {
		if g < 0 || g >= len(u) {
			return 0
		}
		return u[g]
	}
	for g := 0; g < len(u); g++ {
		a1 := at(g+1) + at(g-1)
		a2 := at(g+n) + at(g-n)
		a3 := at(g+nn) + at(g-nn)
		fh := p.F[g] * h2
		a4 := a1 + a2
		a5 := a3 + fh
		a6 := a4 + a5
		upd := a6 * (1.0 / 6.0)
		dif := upd - u[g]
		mdf := dif * p.Mask[g]
		v[g] = u[g] + mdf
		maxRes = math.Max(maxRes, math.Abs(mdf))
	}
	return maxRes
}

// Script emits the complete editor command script that programs the
// solver: declarations, two ping-pong pipeline diagrams (u→v and v→u),
// the convergence comparison and the control flow. This is the modern
// form of the Figure 2 working diagram, entered through the Figure
// 5–10 interactions.
func (p *Problem) Script() string {
	nn := p.N * p.N
	cells := p.Cells()
	c := cells + nn // stream length: N³ elements + N² drain for the deepest tap
	var sb strings.Builder
	fmt.Fprintf(&sb, "doc jacobi3d-%dx%dx%d\n", p.N, p.N, p.Nz)
	fmt.Fprintf(&sb, "var u plane=%d base=%d len=%d\n", PlaneU, p.VarBase, cells+nn)
	fmt.Fprintf(&sb, "var f plane=%d base=%d len=%d\n", PlaneF, p.VarBase, cells)
	fmt.Fprintf(&sb, "var mask plane=%d base=%d len=%d\n", PlaneMask, p.VarBase, cells)
	fmt.Fprintf(&sb, "var v plane=%d base=%d len=%d\n", PlaneV, p.VarBase, cells+nn)

	pipe := func(src string, srcPlane int, dst string, dstPlane int) {
		h2 := p.H * p.H
		fmt.Fprintf(&sb, "place memplane Msrc at 1 6 plane=%d\n", srcPlane)
		fmt.Fprintf(&sb, "place memplane Mf at 1 16 plane=%d\n", PlaneF)
		fmt.Fprintf(&sb, "place memplane Mm at 1 21 plane=%d\n", PlaneMask)
		fmt.Fprintf(&sb, "place memplane Mdst at 82 12 plane=%d\n", dstPlane)
		fmt.Fprintf(&sb, "place sdu Z at 15 2\n")
		fmt.Fprintf(&sb, "taps Z %d %d %d %d %d %d %d\n", nn-1, nn+1, nn-p.N, nn+p.N, 0, 2*nn, nn)
		fmt.Fprintf(&sb, "place triplet T1 at 30 1\n")
		fmt.Fprintf(&sb, "place triplet T2 at 30 12\n")
		fmt.Fprintf(&sb, "place triplet T3 at 48 4\n")
		fmt.Fprintf(&sb, "place triplet T4 at 64 8\n")

		// Figure 10 popups: function-unit operations.
		fmt.Fprintf(&sb, "op T1.u0 add\nop T1.u1 add\nop T1.u2 add\n")
		fmt.Fprintf(&sb, "op T2.u0 mul constb=%g\n", h2)
		fmt.Fprintf(&sb, "op T2.u1 add\nop T2.u2 add\n")
		fmt.Fprintf(&sb, "op T3.u0 add\n")
		fmt.Fprintf(&sb, "op T3.u1 mul constb=%g\n", 1.0/6.0)
		fmt.Fprintf(&sb, "op T3.u2 sub\n")
		fmt.Fprintf(&sb, "op T4.u0 mul\nop T4.u1 add\n")
		fmt.Fprintf(&sb, "op T4.u2 maxabs reduce init=0\n")

		// Figure 8 rubber-band wiring.
		wires := []string{
			"Msrc.rd -> Z.in",
			"Z.t0 -> T1.u0.a", "Z.t1 -> T1.u0.b",
			"Z.t2 -> T1.u1.a", "Z.t3 -> T1.u1.b",
			"Z.t4 -> T1.u2.a", "Z.t5 -> T1.u2.b",
			"Mf.rd -> T2.u0.a",
			"T1.u0.o -> T2.u1.a", "T1.u1.o -> T2.u1.b",
			"T1.u2.o -> T2.u2.a", "T2.u0.o -> T2.u2.b",
			"T2.u1.o -> T3.u0.a", "T2.u2.o -> T3.u0.b",
			"T3.u0.o -> T3.u1.a",
			"T3.u1.o -> T3.u2.a", "Z.t6 -> T3.u2.b",
			"T3.u2.o -> T4.u0.a", "Mm.rd -> T4.u0.b",
			"Z.t6 -> T4.u1.a", "T4.u0.o -> T4.u1.b",
			"T4.u0.o -> T4.u2.a",
			"T4.u1.o -> Mdst.wr",
		}
		for _, w := range wires {
			fmt.Fprintf(&sb, "connect %s\n", w)
		}

		// Figure 9 subwindows: DMA programs. All source streams total
		// C elements so the DMA units pump in lockstep.
		fmt.Fprintf(&sb, "dma Msrc rd var=%s stride=1 count=%d\n", src, c)
		fmt.Fprintf(&sb, "dma Mf rd var=f stride=1 count=%d skip=%d\n", cells, nn)
		fmt.Fprintf(&sb, "dma Mm rd var=mask stride=1 count=%d skip=%d\n", cells, nn)
		fmt.Fprintf(&sb, "dma Mdst wr var=%s stride=1 count=%d skip=%d\n", dst, cells, nn)

		// Residual convergence check (the paper's interrupt scheme).
		fmt.Fprintf(&sb, "compare T4.u2 lt %g flag=1\n", p.Tol)
	}

	sb.WriteString("# pipeline 0: u -> v\n")
	pipe("u", PlaneU, "v", PlaneV)
	sb.WriteString("# pipeline 1: v -> u\npipe new back\n")
	pipe("v", PlaneV, "u", PlaneU)

	// Control flow: iterate the ping-pong pair until flag 1 (residual
	// below tolerance) is raised, then halt.
	sb.WriteString("flow label=fwd pipe=0 cond=set flag=1 branch=done\n")
	sb.WriteString("flow label=bwd pipe=1 cond=clear flag=1 branch=fwd\n")
	sb.WriteString("flow label=done pipe=-1 cond=halt\n")
	return sb.String()
}

// BuildDocument drives the visual environment with the generated
// script and returns the resulting semantic document and the editor
// (whose Log is the interaction transcript).
func (p *Problem) BuildDocument(cfg arch.Config) (*diagram.Document, *editor.Editor, error) {
	if err := p.Validate(cfg); err != nil {
		return nil, nil, err
	}
	inv, err := arch.NewInventory(cfg)
	if err != nil {
		return nil, nil, err
	}
	ed := editor.New(inv, "jacobi3d")
	if _, err := ed.ExecScript(strings.NewReader(p.Script()), false); err != nil {
		return nil, nil, fmt.Errorf("jacobi: editor script: %w", err)
	}
	return ed.Doc, ed, nil
}

// Compile programs the solver through the compile pipeline: the
// instance is validated against the pipeline's machine, then Script
// runs through pl.CompileScript — served from pl's compile cache when
// an equal script (say, an equal slab of a partitioned grid) was
// compiled before. The result's Instrs(0, 1) are the forward (u→v) and
// backward (v→u) sweeps.
func (p *Problem) Compile(pl *pipeline.Pipeline) (*pipeline.Result, error) {
	if err := p.Validate(pl.Inv.Cfg); err != nil {
		return nil, err
	}
	res, err := pl.CompileScript(p.Script())
	if err != nil {
		return nil, fmt.Errorf("jacobi: %w", err)
	}
	return res, nil
}

// Result is the outcome of an NSC simulation run.
type Result struct {
	U          []float64
	Iterations int
	Residual   float64
	Converged  bool
	Stats      sim.Stats
	MFLOPS     float64
	// FillCycles is the pipeline depth reported by the generator.
	FillCycles int
	// PlanCache reports the node's plan store: the ping-pong solver
	// dispatches two distinct sweep instructions hundreds of times, so
	// Hits ≈ Iterations − Misses.
	PlanCache sim.PlanCacheStats
	// Traps counts the exception/interrupt events raised during the
	// run (all zero when Problem.Trap leaves detection off).
	Traps sim.TrapStats
}

// Load writes the problem arrays into the node's memory planes.
func (p *Problem) Load(n *sim.Node) error {
	if err := n.WriteWords(PlaneU, p.VarBase, p.U0); err != nil {
		return err
	}
	if err := n.WriteWords(PlaneF, p.VarBase, p.F); err != nil {
		return err
	}
	return n.WriteWords(PlaneMask, p.VarBase, p.Mask)
}

// Run performs the complete paper workflow: build the diagrams in the
// editor, check them, generate microcode, load the node, execute until
// the convergence interrupt, and read the solution back.
func (p *Problem) Run(cfg arch.Config) (*Result, error) {
	node, err := sim.NewNode(cfg)
	if err != nil {
		return nil, err
	}
	comp, err := p.Compile(pipeline.New(node.Inv))
	if err != nil {
		return nil, err
	}
	prog, rep := comp.Prog, comp.Rep
	if err := p.Load(node); err != nil {
		return nil, err
	}
	node.TrapCfg = p.Trap
	res, err := node.Run(prog, int64(2*p.MaxIter+4))
	if err != nil {
		// Surface the counters gathered before the abort — a trap
		// error's context (events quieted, retries priced) is exactly
		// what the caller needs to report.
		return &Result{Stats: node.Stats, PlanCache: node.Store().Stats(),
			Traps: res.Traps}, err
	}

	out := &Result{Stats: node.Stats, MFLOPS: node.Stats.MFLOPS(cfg.ClockHz),
		PlanCache: node.Store().Stats(), Traps: res.Traps}
	for _, pi := range rep.Pipes {
		if pi.FillCycles > out.FillCycles {
			out.FillCycles = pi.FillCycles
		}
	}
	// Iterations = executed instructions minus the halt op.
	out.Iterations = int(res.Executed) - 1
	out.Converged = node.Flag(1)
	// The latest iterate lives in u after an even number of sweeps,
	// in v after an odd number.
	plane := PlaneU
	if out.Iterations%2 == 1 {
		plane = PlaneV
	}
	u, err := node.ReadWords(plane, p.VarBase, p.Cells())
	if err != nil {
		return nil, err
	}
	out.U = u
	out.Residual = node.RedReg[ResidualFU]
	return out, nil
}
