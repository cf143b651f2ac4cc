package engine

import (
	"slices"
	"testing"

	"repro/internal/arch"
	"repro/internal/codegen"
	"repro/internal/jacobi"
	"repro/internal/microcode"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/sim"
)

// slabLocals partitions an n×n×nz model problem over p ranks and
// returns each rank's slab problem and a fresh node per rank.
func slabLocals(t *testing.T, cfg arch.Config, p, n, nz int) ([]*jacobi.Problem, []*sim.Node) {
	t.Helper()
	g := jacobi.NewModelProblem(n, 1e-4, 10)
	g.Nz = nz
	g.F = make([]float64, g.Cells())
	g.U0 = make([]float64, g.Cells())
	g.Mask = make([]float64, g.Cells())
	part, err := NewPartition(p, n, nz)
	if err != nil {
		t.Fatal(err)
	}
	locals := make([]*jacobi.Problem, p)
	nodes := make([]*sim.Node, p)
	for r := range locals {
		if locals[r], err = part.Local(cfg, g, r); err != nil {
			t.Fatal(err)
		}
		if nodes[r], err = sim.NewNode(cfg); err != nil {
			t.Fatal(err)
		}
	}
	return locals, nodes
}

// TestCompileSweepsMatchesPerRankCodegen: the cached compile path hands
// every rank the same fwd/bwd words a private per-rank generator
// produces from that rank's own document, on a uniform partition (64
// ranks × 2 planes) and a non-uniform one (8 ranks over 31 planes).
func TestCompileSweepsMatchesPerRankCodegen(t *testing.T) {
	cfg := arch.Default()
	for _, tc := range []struct{ p, n, nz int }{{64, 16, 130}, {8, 33, 33}} {
		locals, nodes := slabLocals(t, cfg, tc.p, tc.n, tc.nz)
		fwd, bwd, err := CompileSweeps(cfg, 2, locals, func(r int) *sim.Node { return nodes[r] })
		if err != nil {
			t.Fatal(err)
		}
		for r, lp := range locals {
			doc, _, err := lp.BuildDocument(cfg)
			if err != nil {
				t.Fatal(err)
			}
			gen := codegen.New(arch.MustInventory(cfg))
			for i, got := range []*microcode.Instr{fwd[r], bwd[r]} {
				want, _, err := gen.Pipeline(doc, doc.Pipes[i])
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(got.W, want.W) {
					t.Errorf("P=%d rank %d pipeline %d: words differ from Generator.Pipeline", tc.p, r, i)
				}
			}
		}
	}
}

// TestCompileSweepsBuildsOneDocumentPerSlab: on a uniform partition
// every rank's slab script is the same, so a sequential compile builds
// and compiles one document and serves the other ranks from the cache.
func TestCompileSweepsBuildsOneDocumentPerSlab(t *testing.T) {
	cfg := arch.Default()
	locals, nodes := slabLocals(t, cfg, 64, 16, 130)
	pl := pipeline.New(arch.MustInventory(cfg))
	pl.Obs = obs.New()
	if _, _, err := compileSweeps(pl, 1, locals, func(r int) *sim.Node { return nodes[r] }); err != nil {
		t.Fatal(err)
	}
	if n := pl.Obs.Reg.Totals()["counter/pipeline.pass.build-diagram"]; n != 1 {
		t.Errorf("built %d documents for 64 equal slabs, want 1", n)
	}
	if st := pl.Cache.Stats(); st.Misses != 1 || st.Hits != 63 {
		t.Errorf("compile cache %+v, want 1 miss and 63 hits", st)
	}
}
