package hypercube

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/arch"
	"repro/internal/diag"
	"repro/internal/jacobi"
	"repro/internal/topo"
)

func smallCfg() arch.Config {
	cfg := arch.Default()
	cfg.HypercubeDim = 3
	return cfg
}

func TestNewMachine(t *testing.T) {
	m, err := New(smallCfg(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if m.P() != 8 {
		t.Fatalf("P = %d", m.P())
	}
	if _, err := New(smallCfg(), -1); err == nil {
		t.Error("negative dim accepted")
	}
	if _, err := New(smallCfg(), 11); err == nil {
		t.Error("dim 11 accepted")
	}
}

// mustHops is Hops for in-range test arguments.
func mustHops(t *testing.T, m *Machine, from, to int) int {
	t.Helper()
	h, err := m.Hops(from, to)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func TestHopsAndRoutes(t *testing.T) {
	m, _ := New(smallCfg(), 3)
	if got := mustHops(t, m, 0, 7); got != 3 {
		t.Errorf("hops 0->7 = %d", got)
	}
	if mustHops(t, m, 5, 5) != 0 {
		t.Error("self hops != 0")
	}
	path, err := m.Route(0, 6)
	if err != nil {
		t.Fatal(err)
	}
	// e-cube: resolve bit 1 then bit 2: 0 -> 2 -> 6.
	want := []int{0, 2, 6}
	if len(path) != len(want) {
		t.Fatalf("path = %v", path)
	}
	for i := range want {
		if path[i] != want[i] {
			t.Fatalf("path = %v, want %v", path, want)
		}
	}
	if _, err := m.Route(0, 99); err == nil {
		t.Error("out-of-range route accepted")
	}
}

// Property: every e-cube route has exactly Hops+1 nodes, consecutive
// nodes differ in one bit, and the route ends at the destination.
func TestRouteProperty(t *testing.T) {
	m, _ := New(smallCfg(), 3)
	fn := func(a, b uint8) bool {
		from, to := int(a%8), int(b%8)
		path, err := m.Route(from, to)
		if err != nil {
			return false
		}
		if h, err := m.Hops(from, to); err != nil || len(path) != h+1 {
			return false
		}
		if path[len(path)-1] != to {
			return false
		}
		for i := 1; i < len(path); i++ {
			if h, err := m.Hops(path[i-1], path[i]); err != nil || h != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(fn, nil); err != nil {
		t.Error(err)
	}
}

func TestGrayRing(t *testing.T) {
	// Gray-code ring: consecutive ranks are one hop apart.
	for r := 1; r < 64; r++ {
		a, b := topo.Gray(r-1), topo.Gray(r)
		if d := a ^ b; d&(d-1) != 0 || d == 0 {
			t.Errorf("gray ranks %d,%d differ in more than one bit", r-1, r)
		}
	}
	// Distinct addresses.
	seen := map[int]bool{}
	for r := 0; r < 64; r++ {
		if seen[topo.Gray(r)] {
			t.Fatal("gray code collision")
		}
		seen[topo.Gray(r)] = true
	}
}

func TestSendCost(t *testing.T) {
	m, _ := New(smallCfg(), 3)
	if m.SendCost(1000, 0) != 0 {
		t.Error("local send should be free")
	}
	one := m.SendCost(800, 1)
	two := m.SendCost(800, 2)
	if two <= one {
		t.Error("more hops should cost more")
	}
	big := m.SendCost(8000, 1)
	if big <= one {
		t.Error("more bytes should cost more")
	}
	// Exact: hops*8 + ceil(bytes/8).
	if got := m.SendCost(801, 2); got != 2*8+101 {
		t.Errorf("send cost = %d", got)
	}
}

func TestCopyWordsMovesDataAndCharges(t *testing.T) {
	m, _ := New(smallCfg(), 3)
	data := []float64{1, 2, 3, 4}
	if err := m.Nodes[0].WriteWords(0, 100, data); err != nil {
		t.Fatal(err)
	}
	if err := m.CopyWords(0, 0, 100, 5, 2, 200, 4); err != nil {
		t.Fatal(err)
	}
	got, _ := m.Nodes[5].ReadWords(2, 200, 4)
	for i := range data {
		if got[i] != data[i] {
			t.Fatalf("copied[%d] = %v", i, got[i])
		}
	}
	if m.CommCycles == 0 {
		t.Error("no communication charged")
	}
}

// Regression: out-of-range node ranks and plane indices must come back
// as errors from Hops/Route/CopyWords, never as panics.
func TestTopologyValidation(t *testing.T) {
	m, _ := New(smallCfg(), 3)
	for _, pair := range [][2]int{{-1, 0}, {0, -1}, {8, 0}, {0, 8}, {99, 99}} {
		if _, err := m.Hops(pair[0], pair[1]); err == nil {
			t.Errorf("Hops(%d, %d) accepted out-of-range rank", pair[0], pair[1])
		}
		if _, err := m.Route(pair[0], pair[1]); err == nil {
			t.Errorf("Route(%d, %d) accepted out-of-range rank", pair[0], pair[1])
		}
	}
	before := m.CommCycles
	for _, tc := range []struct {
		name                string
		fromNode, fromPlane int
		toNode, toPlane     int
	}{
		{"source rank low", -1, 0, 0, 0},
		{"source rank high", 8, 0, 0, 0},
		{"dest rank low", 0, 0, -1, 0},
		{"dest rank high", 0, 0, 8, 0},
		{"source plane", 0, -1, 1, 0},
		{"dest plane", 0, 0, 1, 99},
	} {
		if err := m.CopyWords(tc.fromNode, tc.fromPlane, 0, tc.toNode, tc.toPlane, 0, 4); err == nil {
			t.Errorf("CopyWords %s: out-of-range accepted", tc.name)
		}
	}
	if m.CommCycles != before {
		t.Error("failed copies charged communication")
	}
}

// TestMultiNodeMatchesGlobalReference: the decomposed solve agrees with
// the single-grid scalar reference bit-for-bit and converges on the
// same iteration.
func TestMultiNodeMatchesGlobalReference(t *testing.T) {
	cfg := smallCfg()
	// Global grid 8×8×10: 8 interior planes over 4 nodes = 2 each.
	g := jacobi.NewModelProblem(8, 1e-4, 400)
	g.Nz = 10
	g.F = make([]float64, g.Cells())
	g.U0 = make([]float64, g.Cells())
	g.Mask = make([]float64, g.Cells())
	for k := 0; k < g.Nz; k++ {
		for j := 0; j < g.N; j++ {
			for i := 0; i < g.N; i++ {
				idx := g.Index(i, j, k)
				g.F[idx] = 1
				if i > 0 && i < g.N-1 && j > 0 && j < g.N-1 && k > 0 && k < g.Nz-1 {
					g.Mask[idx] = 1
				}
			}
		}
	}
	ref := g.Reference()
	if !ref.Converged {
		t.Fatal("reference did not converge")
	}

	m, err := New(cfg, 2) // 4 nodes
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.SolveJacobi(g)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("hypercube solve did not converge (res %g)", res.Residual)
	}
	if res.Iterations != ref.Iters {
		t.Errorf("iterations = %d, reference %d", res.Iterations, ref.Iters)
	}
	for i := range ref.U {
		if res.U[i] != ref.U[i] {
			t.Fatalf("u[%d] = %g, reference %g", i, res.U[i], ref.U[i])
		}
	}
	if res.GFLOPS <= 0 || res.Cycles <= 0 {
		t.Errorf("stats: %+v", res)
	}
	if m.CommCycles == 0 {
		t.Error("multi-node solve charged no communication")
	}
}

func TestSingleNodeDegenerateCase(t *testing.T) {
	cfg := smallCfg()
	g := jacobi.NewModelProblem(8, 1e-3, 200)
	m, err := New(cfg, 0) // 1 node
	if err != nil {
		t.Fatal(err)
	}
	// 6 interior planes over 1 node.
	res, err := m.SolveJacobi(g)
	if err != nil {
		t.Fatal(err)
	}
	ref := g.Reference()
	if res.Iterations != ref.Iters {
		t.Errorf("iterations = %d, want %d", res.Iterations, ref.Iters)
	}
	for i := range ref.U {
		if res.U[i] != ref.U[i] {
			t.Fatalf("u[%d] mismatch", i)
		}
	}
	if m.CommCycles != 0 {
		t.Error("single node charged communication")
	}
}

func TestSolveJacobiRejectsUnevenDecomposition(t *testing.T) {
	m, _ := New(smallCfg(), 2) // 4 nodes
	g := jacobi.NewModelProblem(8, 1e-4, 100)
	// 6 interior planes over 4 nodes: uneven.
	if _, err := m.SolveJacobi(g); err == nil {
		t.Error("uneven decomposition accepted")
	}
}

func TestPeakAndMemoryClaims(t *testing.T) {
	cfg := arch.Default()
	m := &Machine{Cfg: cfg, Dim: 6}
	for i := 0; i < 64; i++ {
		m.Nodes = append(m.Nodes, nil)
	}
	if got := m.PeakGFLOPS(); math.Abs(got-40.96) > 1e-9 {
		t.Errorf("64-node peak = %g GFLOPS, paper says ~40", got)
	}
	if got := m.TotalMemoryBytes(); got != 128<<30 {
		t.Errorf("64-node memory = %d, paper says 128 GB", got)
	}
}

func TestResidualNorm(t *testing.T) {
	if ResidualNorm([]float64{1, -5, 2}) != 5 {
		t.Error("residual norm wrong")
	}
	if ResidualNorm(nil) != 0 {
		t.Error("empty norm wrong")
	}
}

// TestNegativeCountsRejected: a negative sweep count, checkpoint stride,
// watchdog budget or spare pool is a typed R041 error, never a silently
// ignored value.
func TestNegativeCountsRejected(t *testing.T) {
	g := jacobi.NewModelProblem(8, 1e-4, 10)
	for _, set := range []func(m *Machine) error{
		func(m *Machine) error { m.StopAfter = -3; _, err := m.SolveJacobi(g); return err },
		func(m *Machine) error { m.CheckpointEvery = -4; _, err := m.SolveJacobi(g); return err },
		func(m *Machine) error { m.Trap.WatchdogCycles = -5; _, err := m.SolveJacobi(g); return err },
		func(m *Machine) error { return m.AddSpares(-2) },
	} {
		m, err := New(smallCfg(), 1)
		if err != nil {
			t.Fatal(err)
		}
		if got := diag.AsDiagnostic(set(m), "").Rule; got != diag.RuleNegativeCount {
			t.Errorf("rule %q, want %s", got, diag.RuleNegativeCount)
		}
	}
}
