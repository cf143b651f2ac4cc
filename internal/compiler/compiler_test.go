package compiler

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/checker"
	"repro/internal/codegen"
	"repro/internal/sim"
)

func TestParseBasics(t *testing.T) {
	st, err := Parse("v = u@(1,0,0) + 2.5*f - abs(w)")
	if err != nil {
		t.Fatal(err)
	}
	if st.Dst != "v" {
		t.Errorf("dst = %q", st.Dst)
	}
	if st.Expr.Kind != "sub" {
		t.Errorf("root = %q", st.Expr.Kind)
	}
	if st.Expr.L.Kind != "add" || st.Expr.L.L.Kind != "var" || st.Expr.L.L.DX != 1 {
		t.Errorf("left subtree wrong: %+v", st.Expr.L)
	}
	if st.Expr.R.Kind != "abs" {
		t.Errorf("right = %q", st.Expr.R.Kind)
	}
}

func TestParsePrecedenceAndFolding(t *testing.T) {
	st, err := Parse("v = 1 + 2*3")
	if err != nil {
		t.Fatal(err)
	}
	if st.Expr.Kind != "num" || st.Expr.Val != 7 {
		t.Errorf("constant folding: %+v", st.Expr)
	}
	st, err = Parse("v = (1+2)*u")
	if err != nil {
		t.Fatal(err)
	}
	if st.Expr.Kind != "mul" || st.Expr.L.Val != 3 {
		t.Errorf("paren fold: %+v", st.Expr)
	}
	st, err = Parse("v = -3 * u")
	if err != nil {
		t.Fatal(err)
	}
	if st.Expr.L.Kind != "num" || st.Expr.L.Val != -3 {
		t.Errorf("negation fold: %+v", st.Expr.L)
	}
	// min/max parse.
	st, err = Parse("v = max(u, w@(0,1,0))")
	if err != nil {
		t.Fatal(err)
	}
	if st.Expr.Kind != "max" || st.Expr.R.DY != 1 {
		t.Errorf("max parse: %+v", st.Expr)
	}
	// Scientific notation and negative shifts.
	st, err = Parse("v = 1e-3 * u@(-1,0,-2)")
	if err != nil {
		t.Fatal(err)
	}
	if st.Expr.L.Val != 1e-3 || st.Expr.R.DX != -1 || st.Expr.R.DZ != -2 {
		t.Errorf("sci/neg parse: %+v", st.Expr)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"= u",
		"v u + 1",
		"v = ",
		"v = u +",
		"v = (u",
		"v = u@(1,2)",
		"v = u@(a,b,c)",
		"v = $",
		"v = abs(u",
		"v = min(u)",
		"v = u 3",
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("parsed %q", src)
		}
	}
}

func TestKeyCSE(t *testing.T) {
	a, _ := Parse("v = u@(1,0,0) + u@(1,0,0)")
	if a.Expr.L.key() != a.Expr.R.key() {
		t.Error("identical subtrees key differently")
	}
	b, _ := Parse("v = u@(1,0,0) + u@(0,1,0)")
	if b.Expr.L.key() == b.Expr.R.key() {
		t.Error("distinct shifts key identically")
	}
}

func TestCompileMinMaxMapping(t *testing.T) {
	inv := arch.MustInventory(arch.Default())
	res, err := Compile("v = max(u, w)", inv, Options{
		N: 4, Nz: 4, Planes: map[string]int{"u": 0, "w": 1, "v": 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	// The max op must land on a min/max-capable slot; the checker
	// would have vetoed otherwise, so a clean document is the proof.
	chk := checker.New(inv)
	if es := checker.Errors(chk.CheckDocument(res.Doc)); len(es) > 0 {
		t.Fatalf("minmax mapping produced errors: %v", es)
	}
	if res.FUsUsed != 1 {
		t.Errorf("FUs = %d", res.FUsUsed)
	}
}

func TestCompileCSESharesUnits(t *testing.T) {
	inv := arch.MustInventory(arch.Default())
	// (u+w) appears twice; CSE must map it once: mul(add, add) would be
	// 3 units without CSE, 2 with.
	res, err := Compile("v = (u + w) * (u + w)", inv, Options{
		N: 4, Nz: 4, Planes: map[string]int{"u": 0, "w": 1, "v": 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.FUsUsed != 2 {
		t.Errorf("FUs = %d, want 2 (CSE)", res.FUsUsed)
	}
}

func TestCompileErrors(t *testing.T) {
	inv := arch.MustInventory(arch.Default())
	planes := map[string]int{"u": 0, "v": 1}
	cases := []struct {
		name, src string
		opt       Options
	}{
		{"no planes for var", "v = u + w", Options{N: 4, Nz: 4, Planes: planes}},
		{"no plane for dst", "x = u", Options{N: 4, Nz: 4, Planes: planes}},
		{"constant expr", "v = 1 + 2", Options{N: 4, Nz: 4, Planes: planes}},
		{"bad grid", "v = u", Options{N: 0, Nz: 4, Planes: planes}},
		{"parse error", "v = u +", Options{N: 4, Nz: 4, Planes: planes}},
	}
	for _, tc := range cases {
		if _, err := Compile(tc.src, inv, tc.opt); err == nil {
			t.Errorf("%s: compiled", tc.name)
		}
	}
	// Too many shifted variables for the SDUs.
	_, err := Compile("v = u@(1,0,0) + w@(1,0,0) + x@(1,0,0)", inv, Options{
		N: 4, Nz: 4,
		Planes: map[string]int{"u": 0, "w": 1, "x": 2, "v": 3},
	})
	if err == nil {
		t.Error("3 shifted vars accepted with 2 SDUs")
	}
	// Stencil span beyond the SDU buffer.
	_, err = Compile("v = u@(0,0,120) + u@(0,0,-120)", inv, Options{
		N: 24, Nz: 241, Planes: map[string]int{"u": 0, "v": 1},
	})
	if err == nil {
		t.Error("oversized stencil span accepted")
	}
}

func TestCompileUnitExhaustion(t *testing.T) {
	inv := arch.MustInventory(arch.Default())
	// Build an expression with more ops than the node has units (32):
	// a chain of 40 additions of distinct shifts would exceed the tap
	// budget; use plain vars multiplied pairwise instead.
	var sb strings.Builder
	sb.WriteString("v = u")
	for i := 0; i < 40; i++ {
		fmt.Fprintf(&sb, " + u*%d.0", i+2)
	}
	_, err := Compile(sb.String(), inv, Options{
		N: 4, Nz: 4, Planes: map[string]int{"u": 0, "v": 1},
	})
	if err == nil {
		t.Error("80-op expression mapped onto 32 units")
	}
}

// TestCompileProgramTwoStage compiles a two-statement program — a
// shifted average into a temporary, then a blend back into v — and
// verifies the generated two-instruction microcode against a host
// mirror.
func TestCompileProgramTwoStage(t *testing.T) {
	inv := arch.MustInventory(arch.Default())
	const n = 6
	prog, err := CompileProgram([]string{
		"tmp = 0.25*(u@(1,0,0) + u@(-1,0,0) + u@(0,1,0) + u@(0,-1,0))",
		"v = 0.5*u + 0.5*tmp",
	}, inv, Options{
		N: n, Nz: n,
		Planes: map[string]int{"u": 0, "tmp": 1, "v": 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.Doc.Pipes) != 2 || len(prog.Stmts) != 2 {
		t.Fatalf("pipes=%d stmts=%d", len(prog.Doc.Pipes), len(prog.Stmts))
	}
	if prog.Stmts[0].Base != n || prog.Stmts[1].Base != 0 {
		t.Errorf("bases = %d,%d", prog.Stmts[0].Base, prog.Stmts[1].Base)
	}
	chk := checker.New(inv)
	if es := checker.Errors(chk.CheckDocument(prog.Doc)); len(es) > 0 {
		t.Fatalf("program has errors: %v", es)
	}
	gen := codegen.New(inv)
	mc, _, err := gen.Document(prog.Doc)
	if err != nil {
		t.Fatal(err)
	}
	if mc.Len() != 2 {
		t.Fatalf("microcode length %d", mc.Len())
	}
	node := sim.MustNode(arch.Default())
	cells := n * n * n
	u := make([]float64, cells)
	for i := range u {
		u[i] = float64(i % 7)
	}
	if err := node.WriteWords(0, 0, u); err != nil {
		t.Fatal(err)
	}
	if _, err := node.Run(mc, 10); err != nil {
		t.Fatal(err)
	}
	got, err := node.ReadWords(2, 0, cells)
	if err != nil {
		t.Fatal(err)
	}
	at := func(g int) float64 {
		if g < 0 || g >= cells {
			return 0
		}
		return u[g]
	}
	for g := 0; g < cells; g++ {
		tmp := 0.25 * (at(g+1) + at(g-1) + at(g+n) + at(g-n))
		want := 0.5*u[g] + 0.5*tmp
		if got[g] != want {
			t.Fatalf("v[%d] = %g, want %g", g, got[g], want)
		}
	}
}

func TestCompileProgramErrors(t *testing.T) {
	inv := arch.MustInventory(arch.Default())
	if _, err := CompileProgram(nil, inv, Options{N: 4, Nz: 4}); err == nil {
		t.Error("empty program compiled")
	}
	_, err := CompileProgram([]string{"v = u", "w = +"}, inv, Options{
		N: 4, Nz: 4, Planes: map[string]int{"u": 0, "v": 1, "w": 2},
	})
	if err == nil {
		t.Error("parse error in statement 1 not reported")
	}
}
