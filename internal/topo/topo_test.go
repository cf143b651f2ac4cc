package topo

import (
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// fabrics returns one instance of every shipped topology at a spread of
// node counts, including non-square grids and single-node machines.
func fabrics(t *testing.T) map[string]Topology {
	t.Helper()
	out := map[string]Topology{}
	for _, dim := range []int{0, 1, 2, 3, 4} {
		h, err := NewHypercube(dim)
		if err != nil {
			t.Fatal(err)
		}
		out["hypercube/dim"+string(rune('0'+dim))] = h
	}
	for _, shape := range [][2]int{{1, 1}, {1, 5}, {2, 3}, {2, 4}, {3, 3}, {4, 4}} {
		m, err := NewMesh2D(shape[0], shape[1])
		if err != nil {
			t.Fatal(err)
		}
		out["mesh2d/"+m.Shape()] = m
		tor, err := NewTorus2D(shape[0], shape[1])
		if err != nil {
			t.Fatal(err)
		}
		out["torus2d/"+tor.Shape()] = tor
	}
	return out
}

// pristineAddrs returns the construction-time embedding addrs[r] =
// Addr(r).
func pristineAddrs(tp Topology) []int {
	addrs := make([]int, tp.P())
	for r := range addrs {
		addrs[r] = tp.Addr(r)
	}
	return addrs
}

// TestTopologyProperties pins the embedding invariants the engine's
// cost model relies on, for every fabric: Addr is a bijection inverted
// by RankOf, ring neighbours sit one hop apart, and routes are
// minimal, in-bounds and single-step.
func TestTopologyProperties(t *testing.T) {
	for name, tp := range fabrics(t) {
		t.Run(name, func(t *testing.T) {
			p := tp.P()

			// Addr bijection, inverted by RankOf.
			seen := make(map[int]bool, p)
			for r := 0; r < p; r++ {
				a := tp.Addr(r)
				if a < 0 || a >= p {
					t.Fatalf("Addr(%d) = %d outside %d nodes", r, a, p)
				}
				if seen[a] {
					t.Fatalf("Addr maps two ranks to address %d", a)
				}
				seen[a] = true
				back, err := tp.RankOf(a)
				if err != nil || back != r {
					t.Fatalf("RankOf(Addr(%d)) = %d, %v", r, back, err)
				}
			}

			// Ring neighbours are one hop apart on the pristine embedding.
			for r := 0; r+1 < p; r++ {
				h, err := tp.Hops(tp.Addr(r), tp.Addr(r+1))
				if err != nil {
					t.Fatal(err)
				}
				if h != 1 {
					t.Errorf("ranks %d,%d embed %d hops apart, want 1", r, r+1, h)
				}
			}

			// Random pairs: route length matches Hops, stays in-bounds,
			// and every step is a single hop.
			rng := rand.New(rand.NewSource(int64(p)*37 + 1))
			for trial := 0; trial < 200; trial++ {
				a, b := rng.Intn(p), rng.Intn(p)
				h, err := tp.Hops(a, b)
				if err != nil {
					t.Fatal(err)
				}
				path, err := tp.Route(a, b)
				if err != nil {
					t.Fatal(err)
				}
				if len(path)-1 != h {
					t.Fatalf("route %d->%d has %d steps, Hops says %d", a, b, len(path)-1, h)
				}
				if path[0] != a || path[len(path)-1] != b {
					t.Fatalf("route %d->%d runs %v", a, b, path)
				}
				for i, n := range path {
					if n < 0 || n >= p {
						t.Fatalf("route %d->%d leaves the fabric: %v", a, b, path)
					}
					if i > 0 {
						if sh, _ := tp.Hops(path[i-1], n); sh != 1 {
							t.Fatalf("route %d->%d step %d->%d is %d hops", a, b, path[i-1], n, sh)
						}
					}
				}
			}

			// Out-of-range addresses are rejected, never silently priced.
			for _, bad := range []int{-1, p} {
				if _, err := tp.Hops(bad, 0); err == nil {
					t.Errorf("Hops(%d,0) accepted", bad)
				}
				if _, err := tp.Hops(0, bad); err == nil {
					t.Errorf("Hops(0,%d) accepted", bad)
				}
				if _, err := tp.Route(bad, 0); err == nil {
					t.Errorf("Route(%d,0) accepted", bad)
				}
				if _, err := tp.Route(0, bad); err == nil {
					t.Errorf("Route(0,%d) accepted", bad)
				}
				if _, err := tp.RankOf(bad); err == nil {
					t.Errorf("RankOf(%d) accepted", bad)
				}
			}
		})
	}
}

// butterfly is the reference residual-combine tree over n ranks, in
// rank space: an optional fold of ranks ≥ m = 2^⌊log₂n⌋ onto r−m, one
// round per rank-space bit below m, and the unfold. Each round lists
// its message pairs.
func butterfly(n int) [][][2]int {
	if n <= 1 {
		return nil
	}
	m := floorPow2(n)
	var fold [][2]int
	for r := m; r < n; r++ {
		fold = append(fold, [2]int{r, r - m})
	}
	var rounds [][][2]int
	if n > m {
		rounds = append(rounds, fold)
	}
	for bit := 1; bit < m; bit <<= 1 {
		var rd [][2]int
		for r := 0; r < m; r++ {
			rd = append(rd, [2]int{r, r ^ bit})
		}
		rounds = append(rounds, rd)
	}
	if n > m {
		rounds = append(rounds, fold)
	}
	return rounds
}

// combineRef prices the reference tree over an embedding: each round
// costs its worst pair's distance under the fabric metric.
func combineRef(t *testing.T, tp Topology, addrs []int) []int {
	t.Helper()
	var steps []int
	for _, rd := range butterfly(len(addrs)) {
		worst := 0
		for _, e := range rd {
			h, err := tp.Hops(addrs[e[0]], addrs[e[1]])
			if err != nil {
				t.Fatal(err)
			}
			worst = max(worst, h)
		}
		steps = append(steps, worst)
	}
	return steps
}

// TestCollectiveTrees checks, for every fabric, the shape of the
// residual-combine tree: one round per reference butterfly round —
// ⌈log₂P⌉ on the hypercube and on power-of-two lattices, plus a fold
// and an unfold round otherwise — and none for a single rank.
func TestCollectiveTrees(t *testing.T) {
	for name, tp := range fabrics(t) {
		t.Run(name, func(t *testing.T) {
			p := tp.P()
			steps := tp.CombineSteps(pristineAddrs(tp))
			want := len(butterfly(p))
			if _, ok := tp.(*Hypercube); ok {
				want = 0
				for 1<<want < p {
					want++
				}
			}
			if len(steps) != want {
				t.Errorf("%d combine rounds over %d ranks, want %d", len(steps), p, want)
			}
		})
	}
}

// TestShrunkenEmbeddings prices the combine over the rings recovery
// produces: a survivor subset of a hypercube's Gray addresses
// (non-power-of-two, no longer pristine) and a shrunken grid ring.
func TestShrunkenEmbeddings(t *testing.T) {
	h, _ := NewHypercube(3)
	m, _ := NewMesh2D(2, 4)
	for name, tc := range map[string]struct {
		tp    Topology
		addrs []int
		want  []int
	}{
		"hypercube-minus-two": {h, []int{0, 1, 3, 7, 5, 4}, []int{1, 1, 1}},
		"mesh-minus-three":    {m, []int{0, 1, 2, 3, 6}, []int{3, 1, 2, 3}},
	} {
		t.Run(name, func(t *testing.T) {
			if got := tc.tp.CombineSteps(tc.addrs); !slices.Equal(got, tc.want) {
				t.Errorf("combine steps %v, want %v", got, tc.want)
			}
			if _, ok := tc.tp.(*Hypercube); !ok {
				if ref := combineRef(t, tc.tp, tc.addrs); !slices.Equal(ref, tc.want) {
					t.Errorf("reference tree prices %v, want %v", ref, tc.want)
				}
			}
		})
	}
}

// TestRoundHopsAreCriticalPath: each combine round charges its worst
// pair's distance under the fabric metric — on the hypercube, whose
// routers pair one hop per round, that is always one.
func TestRoundHopsAreCriticalPath(t *testing.T) {
	for name, tp := range fabrics(t) {
		addrs := pristineAddrs(tp)
		want := combineRef(t, tp, addrs)
		if _, ok := tp.(*Hypercube); ok {
			for i := range want {
				want[i] = 1
			}
		}
		if got := tp.CombineSteps(addrs); !slices.Equal(got, want) {
			t.Errorf("%s: combine steps %v, want %v", name, got, want)
		}
	}
}

// TestCombineStepsPricing pins the per-topology combine pricing at
// P=8, the cross-topology clock signal the bench records measure: the
// hypercube pairs one hop per round unconditionally, the open mesh
// pays the full lattice distance for the long butterfly pairs, and the
// torus shortens them by wrapping.
func TestCombineStepsPricing(t *testing.T) {
	for _, tc := range []struct {
		name string
		want []int
	}{
		{"hypercube", []int{1, 1, 1}},
		{"mesh2d", []int{1, 2, 4}},
		{"torus2d", []int{1, 2, 2}},
	} {
		tp, err := New(tc.name, 8)
		if err != nil {
			t.Fatal(err)
		}
		got := tp.CombineSteps(pristineAddrs(tp))
		if len(got) != len(tc.want) {
			t.Fatalf("%s: combine steps %v, want %v", tc.name, got, tc.want)
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Fatalf("%s: combine steps %v, want %v", tc.name, got, tc.want)
			}
		}
	}
	// One rank has nothing to combine.
	for _, name := range Names() {
		tp, err := New(name, 1)
		if err != nil {
			t.Fatal(err)
		}
		if steps := tp.CombineSteps([]int{0}); len(steps) != 0 {
			t.Errorf("%s: single-rank combine steps %v", name, steps)
		}
	}
	// The hypercube's all-ones pricing holds even for shrunken rings.
	h, _ := NewHypercube(3)
	if steps := h.CombineSteps(make([]int, 5)); len(steps) != 3 {
		t.Errorf("5 survivors price %d combine rounds, want 3", len(steps))
	}
}

func TestNewByName(t *testing.T) {
	for name, want := range map[string]string{
		"hypercube": "hypercube", "": "hypercube",
		"mesh2d": "mesh2d", "mesh": "mesh2d",
		"torus2d": "torus2d", "torus": "torus2d",
	} {
		tp, err := New(name, 8)
		if err != nil {
			t.Fatalf("New(%q, 8): %v", name, err)
		}
		if tp.Name() != want || tp.P() != 8 {
			t.Errorf("New(%q, 8) = %s over %d nodes", name, tp.Name(), tp.P())
		}
	}
	if _, err := New("ring", 8); err == nil || !strings.Contains(err.Error(), "unknown topology") {
		t.Errorf("unknown name: %v", err)
	}
	if _, err := New("hypercube", 6); err == nil || !strings.Contains(err.Error(), "power-of-two") {
		t.Errorf("non-power-of-two hypercube: %v", err)
	}
	if _, err := NewHypercube(11); err == nil {
		t.Error("dimension 11 accepted")
	}
	if _, err := NewHypercube(-1); err == nil {
		t.Error("dimension -1 accepted")
	}
	if _, err := NewMesh2D(0, 4); err == nil {
		t.Error("0-row mesh accepted")
	}
	if _, err := NewTorus2D(1, 1<<11); err == nil {
		t.Error("oversized torus accepted")
	}
	if got := Names(); len(got) != 3 {
		t.Errorf("Names() = %v", got)
	}
}

func TestNearSquare(t *testing.T) {
	for _, tc := range []struct{ p, rows, cols int }{
		{1, 1, 1}, {2, 1, 2}, {4, 2, 2}, {6, 2, 3}, {8, 2, 4},
		{16, 4, 4}, {12, 3, 4}, {7, 1, 7}, {0, 1, 1},
	} {
		if r, c := nearSquare(tc.p); r != tc.rows || c != tc.cols {
			t.Errorf("nearSquare(%d) = %d×%d, want %d×%d", tc.p, r, c, tc.rows, tc.cols)
		}
	}
}

func TestShapesAndGray(t *testing.T) {
	h, _ := NewHypercube(3)
	if h.Shape() != "dim 3" || h.Dim() != 3 {
		t.Errorf("hypercube shape %q dim %d", h.Shape(), h.Dim())
	}
	m, _ := NewMesh2D(2, 4)
	if m.Shape() != "2×4" || m.Rows() != 2 || m.Cols() != 4 {
		t.Errorf("mesh shape %q", m.Shape())
	}
	for r := 0; r < 16; r++ {
		if g := Gray(r); r > 0 && popcount(g^Gray(r-1)) != 1 {
			t.Errorf("Gray(%d)=%d and Gray(%d)=%d differ in several bits", r, g, r-1, Gray(r-1))
		}
	}
}

func popcount(x int) int {
	n := 0
	for ; x != 0; x &= x - 1 {
		n++
	}
	return n
}

// TestInvalidEmbeddingPanics: pricing the combine over an embedding
// with out-of-range addresses is a caller bug and must panic loudly.
func TestInvalidEmbeddingPanics(t *testing.T) {
	m, _ := NewMesh2D(2, 2)
	defer func() {
		if recover() == nil {
			t.Error("invalid embedding priced silently")
		}
	}()
	m.CombineSteps([]int{0, 99, 2, 3})
}
