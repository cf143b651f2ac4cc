package multigrid

import (
	"math"
	"testing"

	"repro/internal/arch"
	"repro/internal/jacobi"
	"repro/internal/sim"
)

func TestTransferOperators(t *testing.T) {
	// Restriction of a constant-1 interior field: interior coarse
	// points whose full 27-point neighbourhood is interior get exactly 1.
	nf, nc := 9, 5
	fine := make([]float64, nf*nf*nf)
	for k := 0; k < nf; k++ {
		for j := 0; j < nf; j++ {
			for i := 0; i < nf; i++ {
				if i > 0 && i < nf-1 && j > 0 && j < nf-1 && k > 0 && k < nf-1 {
					fine[i+j*nf+k*nf*nf] = 1
				}
			}
		}
	}
	coarse := Restrict(fine, nf, nc)
	mid := 2 + 2*nc + 2*nc*nc
	if math.Abs(coarse[mid]-1) > 1e-15 {
		t.Errorf("restriction of constant = %g at centre", coarse[mid])
	}
	// Boundary coarse points remain zero.
	if coarse[0] != 0 || coarse[nc*nc*nc-1] != 0 {
		t.Error("restriction wrote boundary")
	}

	// Prolongation of a constant coarse field is constant at interior
	// fine points away from the boundary influence.
	cp := make([]float64, nc*nc*nc)
	for i := range cp {
		cp[i] = 2
	}
	fineUp := Prolong(cp, nc, nf)
	for _, idx := range []int{4 + 4*nf + 4*nf*nf, 3 + 3*nf + 3*nf*nf} {
		if math.Abs(fineUp[idx]-2) > 1e-15 {
			t.Errorf("prolongation of constant = %g at %d", fineUp[idx], idx)
		}
	}
	// Linear reproduction: prolongating a linear-in-i coarse field
	// gives the same linear fine field (trilinear is exact on linears).
	for K := 0; K < nc; K++ {
		for J := 0; J < nc; J++ {
			for I := 0; I < nc; I++ {
				cp[I+J*nc+K*nc*nc] = float64(I)
			}
		}
	}
	lin := Prolong(cp, nc, nf)
	for k := 1; k < nf-1; k++ {
		for j := 1; j < nf-1; j++ {
			for i := 1; i < nf-1; i++ {
				want := float64(i) / 2
				if math.Abs(lin[i+j*nf+k*nf*nf]-want) > 1e-14 {
					t.Fatalf("prolong linear at (%d,%d,%d) = %g, want %g", i, j, k, lin[i+j*nf+k*nf*nf], want)
				}
			}
		}
	}
}

func TestNewRejectsBadGrids(t *testing.T) {
	cfg := arch.Default()
	if _, err := New(cfg, 9, 0, 1e-5, 10); err == nil {
		t.Error("0 levels accepted")
	}
	if _, err := New(cfg, 8, 2, 1e-5, 10); err == nil {
		t.Error("n=8 (not 2^k+1) accepted for 2 levels")
	}
	if _, err := New(cfg, 3, 2, 1e-5, 10); err == nil {
		t.Error("coarsening below 3 accepted")
	}
	if _, err := New(cfg, 9, 2, 1e-5, 10); err != nil {
		t.Errorf("9->5 hierarchy rejected: %v", err)
	}
	if _, err := New(cfg, 9, 3, 1e-5, 10); err != nil {
		t.Errorf("9->5->3 hierarchy rejected: %v", err)
	}
}

// TestVCycleMatchesHostMirror: the NSC-executed V-cycle equals the
// host mirror bit for bit.
func TestVCycleMatchesHostMirror(t *testing.T) {
	cfg := arch.Default()
	s, err := New(cfg, 9, 2, 1e-6, 60)
	if err != nil {
		t.Fatal(err)
	}
	refU, refCycles, refRes, refConv := s.ReferenceVCycle(60)
	if !refConv {
		t.Fatalf("host mirror did not converge (res %g after %d cycles)", refRes, refCycles)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.VCycles != refCycles {
		t.Errorf("NSC used %d V-cycles, host mirror %d", res.VCycles, refCycles)
	}
	for g := range refU {
		if res.U[g] != refU[g] {
			t.Fatalf("u[%d] = %g, host mirror %g", g, res.U[g], refU[g])
		}
	}
	if res.Residual >= s.Tol {
		t.Errorf("final residual %g above tol", res.Residual)
	}
}

// TestMultigridBeatsPlainJacobi: the ref [6] motivation — far fewer
// fine-grid sweeps than single-level iteration for the same tolerance.
func TestMultigridBeatsPlainJacobi(t *testing.T) {
	cfg := arch.Default()
	const n, tol = 9, 1e-6

	s, err := New(cfg, n, 3, tol, 100)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	// Fine-grid work: (pre+post) sweeps per V-cycle.
	mgFineSweeps := res.VCycles * (s.Pre + s.Post)

	// Plain Jacobi on the same problem to a comparable update-residual
	// tolerance. Tolerances measure different quantities (residual vs
	// update), so compare against the iteration count needed to reach
	// the same algebraic error via the residual-based host solver.
	p := jacobi.NewModelProblem(n, 0, 100000)
	p.Tol = 0
	u := append([]float64(nil), p.U0...)
	v := make([]float64, p.Cells())
	bin := make([]float64, p.Cells())
	copy(bin, p.Mask)
	jacIters := 0
	for it := 0; it < 100000; it++ {
		sweepHost(p, u, v, p.F)
		u, v = v, u
		jacIters++
		r := residualHost(p, u, p.F, bin)
		worst := 0.0
		for _, x := range r {
			worst = math.Max(worst, math.Abs(x))
		}
		if worst < tol {
			break
		}
	}
	t.Logf("multigrid: %d V-cycles = %d fine sweeps; plain Jacobi: %d sweeps", res.VCycles, mgFineSweeps, jacIters)
	if mgFineSweeps*4 > jacIters {
		t.Errorf("multigrid (%d fine sweeps) not clearly faster than plain Jacobi (%d sweeps)", mgFineSweeps, jacIters)
	}
}

func TestResidualPipelineAgainstHost(t *testing.T) {
	cfg := arch.Default()
	s, err := New(cfg, 9, 2, 1e-6, 5)
	if err != nil {
		t.Fatal(err)
	}
	// One smoothing pass to get a nontrivial field, then compare the
	// NSC residual array with the host computation.
	if err := s.smooth(0, 2); err != nil {
		t.Fatal(err)
	}
	if err := s.Node.Exec(s.Levels[0].residual); err != nil {
		t.Fatal(err)
	}
	lv := s.Levels[0]
	got, err := s.Node.ReadWords(PlaneR, lv.P.VarBase, lv.P.Cells())
	if err != nil {
		t.Fatal(err)
	}
	u, err := s.Node.ReadWords(jacobi.PlaneU, lv.P.VarBase, lv.P.Cells())
	if err != nil {
		t.Fatal(err)
	}
	want := residualHost(lv.P, u, lv.P.F, lv.BinMask)
	for g := range want {
		if got[g] != want[g] {
			t.Fatalf("r[%d] = %g, host %g", g, got[g], want[g])
		}
	}
	// The reduction register holds the max-abs of the residual.
	worst := 0.0
	for _, x := range want {
		worst = math.Max(worst, math.Abs(x))
	}
	if s.Node.RedReg[jacobi.ResidualFU] != worst {
		t.Errorf("residual register %g, want %g", s.Node.RedReg[jacobi.ResidualFU], worst)
	}
}

// TestRunReportsTraps: an ECC event on the solver node under the retry
// policy recovers to a bit-identical solve, with the recovery counted
// on Result.Traps.
func TestRunReportsTraps(t *testing.T) {
	cfg := arch.Default()
	clean, err := New(cfg, 9, 2, 1e-6, 60)
	if err != nil {
		t.Fatal(err)
	}
	clean.Node.TrapCfg = arch.TrapConfig{Policy: arch.TrapRetry}
	cleanRes, err := clean.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !cleanRes.Traps.Zero() {
		t.Errorf("clean armed solve raised traps: %s", cleanRes.Traps)
	}

	s, err := New(cfg, 9, 2, 1e-6, 60)
	if err != nil {
		t.Fatal(err)
	}
	s.Node.TrapCfg = arch.TrapConfig{Policy: arch.TrapRetry}
	if err := s.Node.InjectECC(sim.ECCFault{Plane: jacobi.PlaneU, Addr: 40, Double: true}); err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Traps.ECCUncorrectable != 1 || res.Traps.Retries != 1 || res.Traps.Halts != 0 {
		t.Errorf("traps = %s, want one recovered ECC event", res.Traps)
	}
	for g := range cleanRes.U {
		if res.U[g] != cleanRes.U[g] {
			t.Fatalf("u[%d] = %g, clean %g", g, res.U[g], cleanRes.U[g])
		}
	}
	if res.Stats.Cycles <= cleanRes.Stats.Cycles {
		t.Errorf("recovery was free: %d vs %d cycles", res.Stats.Cycles, cleanRes.Stats.Cycles)
	}
}
