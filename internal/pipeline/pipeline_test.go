package pipeline_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/codegen"
	"repro/internal/compiler"
	"repro/internal/diag"
	"repro/internal/editor"
	"repro/internal/jacobi"
	"repro/internal/microcode"
	"repro/internal/obs"
	"repro/internal/pipeline"
)

func progHash(t *testing.T, p *microcode.Program) string {
	t.Helper()
	var buf bytes.Buffer
	if _, err := p.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("%x", sha256.Sum256(buf.Bytes()))
}

func goldenHashes(t *testing.T) map[string]string {
	t.Helper()
	b, err := os.ReadFile("testdata/golden_fixtures.json")
	if err != nil {
		t.Fatal(err)
	}
	m := map[string]string{}
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	return m
}

const sduStencilSrc = "v = 0.25*(u@(1,0,0)+u@(-1,0,0)+u@(0,1,0)+u@(0,-1,0)) - w"

var sduStencilOpt = compiler.Options{N: 8, Nz: 4, Planes: map[string]int{"u": 0, "w": 1, "v": 2}}

var programMultiSrc = []string{
	"v = u@(1,0,0) + u@(-1,0,0) + u@(0,0,1)",
	"w = v*0.5 + u",
	"r = abs(w - v)",
}

var programMultiOpt = compiler.Options{N: 6, Nz: 4, Planes: map[string]int{"u": 0, "v": 1, "w": 2, "r": 3}}

const flowScript = `
doc flowdoc
var u plane=0 base=0 len=512
var v plane=1 base=0 len=512
place memplane Mu at 1 2 plane=0
place memplane Mv at 40 2 plane=1
place doublet D at 18 1
op D.u0 mul constb=2
op D.u1 add constb=7
connect Mu.rd -> D.u0.a
connect D.u0.o -> D.u1.a
connect D.u1.o -> Mv.wr
dma Mu rd var=u stride=1 count=512
dma Mv wr var=v stride=1 count=512
flow label=top pipe=0 loadctr=4
flow pipe=0 cond=loop ctr=0 branch=top
flow pipe=0 cond=halt
`

// TestGoldenEquivalence proves the pipeline emits bit-identical
// microcode to the pre-refactor direct codegen path: the hashes in
// testdata/golden_fixtures.json were captured from the seed tree
// before the pipeline existed.
func TestGoldenEquivalence(t *testing.T) {
	golden := goldenHashes(t)
	cfg := arch.Default()
	inv := arch.MustInventory(cfg)

	t.Run("jacobi-subset", func(t *testing.T) {
		subCfg := arch.Subset()
		subPl := pipeline.New(arch.MustInventory(subCfg))
		prob := jacobi.NewModelProblem(8, 1e-4, 10)
		doc, _, err := prob.SubsetBuild(subCfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := subPl.CompileDocument(doc)
		if err != nil {
			t.Fatal(err)
		}
		if h := progHash(t, res.Prog); h != golden["jacobi-subset"] {
			t.Errorf("hash %s, golden %s", h, golden["jacobi-subset"])
		}
	})

	t.Run("sdu-stencil", func(t *testing.T) {
		pl := pipeline.New(inv)
		res, err := pl.CompileSource([]string{sduStencilSrc}, sduStencilOpt)
		if err != nil {
			t.Fatal(err)
		}
		if h := progHash(t, res.Prog); h != golden["sdu-stencil"] {
			t.Errorf("hash %s, golden %s", h, golden["sdu-stencil"])
		}
	})

	t.Run("program-multi", func(t *testing.T) {
		pl := pipeline.New(inv)
		res, err := pl.CompileSource(programMultiSrc, programMultiOpt)
		if err != nil {
			t.Fatal(err)
		}
		if h := progHash(t, res.Prog); h != golden["program-multi"] {
			t.Errorf("hash %s, golden %s", h, golden["program-multi"])
		}
	})

	t.Run("document-flow", func(t *testing.T) {
		pl := pipeline.New(inv)
		ed := editor.New(inv, "flow")
		if _, err := ed.ExecScript(strings.NewReader(flowScript), false); err != nil {
			t.Fatal(err)
		}
		res, err := pl.CompileDocument(ed.Doc)
		if err != nil {
			t.Fatal(err)
		}
		if h := progHash(t, res.Prog); h != golden["document-flow"] {
			t.Errorf("hash %s, golden %s", h, golden["document-flow"])
		}
	})
}

// TestCompileCache exercises the content-addressed compile cache: a
// repeat compile is a hit with identical bits, any input change is a
// miss, and counters track both.
func TestCompileCache(t *testing.T) {
	inv := arch.MustInventory(arch.Default())
	pl := pipeline.New(inv)

	cold, err := pl.CompileSource(programMultiSrc, programMultiOpt)
	if err != nil {
		t.Fatal(err)
	}
	if cold.CacheHit {
		t.Error("first compile reported a cache hit")
	}
	warm, err := pl.CompileSource(programMultiSrc, programMultiOpt)
	if err != nil {
		t.Fatal(err)
	}
	if !warm.CacheHit {
		t.Error("repeat compile missed the cache")
	}
	if progHash(t, cold.Prog) != progHash(t, warm.Prog) {
		t.Error("cache hit returned different microcode")
	}
	st := pl.Cache.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 {
		t.Errorf("stats = %+v, want hits=1 misses=1 entries=1", st)
	}

	// A mutated cached program must not corrupt the cache.
	warm.Prog.Instrs[0].W[0] ^= 0xFFFF
	again, err := pl.CompileSource(programMultiSrc, programMultiOpt)
	if err != nil {
		t.Fatal(err)
	}
	if progHash(t, again.Prog) != progHash(t, cold.Prog) {
		t.Error("mutating a hit's program corrupted the cached copy")
	}

	// Different planes → different key.
	opt2 := programMultiOpt
	opt2.Planes = map[string]int{"u": 0, "v": 1, "w": 2, "r": 4}
	if _, err := pl.CompileSource(programMultiSrc, opt2); err != nil {
		t.Fatal(err)
	}
	if st := pl.Cache.Stats(); st.Entries != 2 {
		t.Errorf("entries = %d after distinct compile, want 2", st.Entries)
	}

	pl.Cache.Reset()
	if st := pl.Cache.Stats(); st.Hits != 0 || st.Misses != 0 || st.Entries != 0 {
		t.Errorf("stats after reset = %+v", st)
	}
}

// TestCompileScript: an editor script compiles to the same program as
// codegen on the document the script builds, each standalone
// instruction matches Generator.Pipeline word for word, an equal script
// is a cache hit whose instructions are private copies, and a failed
// script is reported with diagnostics and not cached.
func TestCompileScript(t *testing.T) {
	inv := arch.MustInventory(arch.Default())
	ed := editor.New(inv, "flow")
	if _, err := ed.ExecScript(strings.NewReader(flowScript), false); err != nil {
		t.Fatal(err)
	}
	gen := codegen.New(inv)
	refProg, _, err := gen.Document(ed.Doc)
	if err != nil {
		t.Fatal(err)
	}
	refIn, _, err := gen.Pipeline(ed.Doc, ed.Doc.Pipes[0])
	if err != nil {
		t.Fatal(err)
	}

	pl := pipeline.New(inv)
	res, err := pl.CompileScript(flowScript)
	if err != nil {
		t.Fatal(err)
	}
	if progHash(t, res.Prog) != progHash(t, refProg) {
		t.Error("script compile differs from Generator.Document on the same document")
	}
	ins, err := res.Instrs(0)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(ins[0].W, refIn.W) {
		t.Error("standalone instruction differs from Generator.Pipeline")
	}
	if _, err := res.Instrs(1); err == nil {
		t.Error("Instrs accepted a pipeline the document does not have")
	}

	ins[0].W[0] ^= 1
	hit, err := pl.CompileScript(flowScript)
	if err != nil {
		t.Fatal(err)
	}
	if !hit.CacheHit {
		t.Error("equal script missed the cache")
	}
	if ins, err = hit.Instrs(0); err != nil || !slices.Equal(ins[0].W, refIn.W) {
		t.Errorf("cache hit instruction corrupted by a caller's edit (err %v)", err)
	}

	bad, err := pl.CompileScript(flowScript + "connect Nope.rd -> D.u0.b\n")
	if err == nil {
		t.Fatal("bad script compiled")
	}
	if len(bad.Diags) == 0 {
		t.Error("failed script compile carries no diagnostics")
	}
	if st := pl.Cache.Stats(); st.Entries != 1 || st.Hits != 1 || st.Misses != 2 {
		t.Errorf("stats = %+v, want entries=1 hits=1 misses=2", st)
	}
}

// TestDocumentCache covers the document-keyed half of the cache: edits
// invalidate, unchanged documents hit.
func TestDocumentCache(t *testing.T) {
	inv := arch.MustInventory(arch.Default())
	pl := pipeline.New(inv)
	ed := editor.New(inv, "flow")
	if _, err := ed.ExecScript(strings.NewReader(flowScript), false); err != nil {
		t.Fatal(err)
	}
	if _, err := pl.CompileDocument(ed.Doc); err != nil {
		t.Fatal(err)
	}
	res, err := pl.CompileDocument(ed.Doc)
	if err != nil {
		t.Fatal(err)
	}
	if !res.CacheHit {
		t.Error("unchanged document missed the cache")
	}
	// Any semantic edit invalidates.
	if _, err := ed.Exec("op D.u1 add constb=9"); err != nil {
		t.Fatal(err)
	}
	res, err = pl.CompileDocument(ed.Doc)
	if err != nil {
		t.Fatal(err)
	}
	if res.CacheHit {
		t.Error("edited document served from the cache")
	}
}

// TestPassTimings verifies the pass framework reports every pass, in
// order, and counts and times each run of each pass in obs.
func TestPassTimings(t *testing.T) {
	inv := arch.MustInventory(arch.Default())
	pl := pipeline.New(inv)
	pl.Obs = obs.New()

	res, err := pl.CompileSource([]string{sduStencilSrc}, sduStencilOpt)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"parse", "build-diagram", "check", "codegen", "validate"}
	if len(res.Passes) != len(want) {
		t.Fatalf("got %d passes, want %d", len(res.Passes), len(want))
	}
	for i, pt := range res.Passes {
		if pt.Name != want[i] {
			t.Errorf("pass %d = %q, want %q", i, pt.Name, want[i])
		}
	}
	totals := pl.Obs.Reg.Totals()
	for _, name := range want {
		if n := totals["counter/pipeline.pass."+name]; n != 1 {
			t.Errorf("pass counter for %q = %d, want 1", name, n)
		}
		if n := totals["hist/pipeline.pass."+name+".us.count"]; n != 1 {
			t.Errorf("pass histogram for %q has %d samples, want 1", name, n)
		}
	}
}

// TestDiagnosticsTyped asserts each front-end layer surfaces its
// stable rule code through the pipeline.
func TestDiagnosticsTyped(t *testing.T) {
	inv := arch.MustInventory(arch.Default())
	cases := []struct {
		name  string
		stmts []string
		opt   compiler.Options
		rule  string
	}{
		{"parse-syntax", []string{"v = u +"}, sduStencilOpt, diag.RuleParseSyntax},
		{"const-expr", []string{"v = 1 + 2"}, sduStencilOpt, diag.RuleConstExpr},
		{"no-plane", []string{"v = q"}, sduStencilOpt, diag.RuleNoPlane},
		{"bad-grid", []string{"v = u"}, compiler.Options{N: 0, Nz: 0, Planes: sduStencilOpt.Planes}, diag.RuleProgram},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			pl := pipeline.New(inv)
			res, err := pl.CompileSource(tc.stmts, tc.opt)
			if err == nil {
				t.Fatal("compile succeeded, want error")
			}
			found := false
			for _, d := range res.Diags {
				if d.Rule == tc.rule {
					found = true
				}
			}
			if !found {
				t.Errorf("no %s diagnostic in %v", tc.rule, res.Diags)
			}
		})
	}
}

// TestFailedCompileNotCached ensures errors are never served from the
// cache.
func TestFailedCompileNotCached(t *testing.T) {
	inv := arch.MustInventory(arch.Default())
	pl := pipeline.New(inv)
	if _, err := pl.CompileSource([]string{"v = u +"}, sduStencilOpt); err == nil {
		t.Fatal("want parse error")
	}
	if st := pl.Cache.Stats(); st.Entries != 0 {
		t.Errorf("failed compile stored %d cache entries", st.Entries)
	}
}

// BenchmarkCompileCache measures the cold path (every iteration a
// fresh content address) against the warm path (every iteration a
// hit). The warm/cold ratio is the compile cache's value; CI's
// bench-smoke runs both.
func BenchmarkCompileCache(b *testing.B) {
	inv := arch.MustInventory(arch.Default())
	b.Run("cold", func(b *testing.B) {
		pl := pipeline.New(inv)
		for i := 0; i < b.N; i++ {
			pl.Cache.Reset()
			if _, err := pl.CompileSource(programMultiSrc, programMultiOpt); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("warm", func(b *testing.B) {
		pl := pipeline.New(inv)
		if _, err := pl.CompileSource(programMultiSrc, programMultiOpt); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := pl.CompileSource(programMultiSrc, programMultiOpt); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// TestWarmHitSpeedup is the acceptance gate behind the benchmark: a
// warm hit must be at least 2× faster than a cold compile. The margin
// in practice is orders of magnitude (a map probe plus an instruction
// clone versus a full compile), so the 2× floor is timing-noise safe.
func TestWarmHitSpeedup(t *testing.T) {
	inv := arch.MustInventory(arch.Default())
	pl := pipeline.New(inv)
	cold := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			pl.Cache.Reset()
			if _, err := pl.CompileSource(programMultiSrc, programMultiOpt); err != nil {
				b.Fatal(err)
			}
		}
	})
	warm := testing.Benchmark(func(b *testing.B) {
		if _, err := pl.CompileSource(programMultiSrc, programMultiOpt); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := pl.CompileSource(programMultiSrc, programMultiOpt); err != nil {
				b.Fatal(err)
			}
		}
	})
	if cold.NsPerOp() < 2*warm.NsPerOp() {
		t.Errorf("warm hit %d ns/op not 2x faster than cold %d ns/op", warm.NsPerOp(), cold.NsPerOp())
	}
}
