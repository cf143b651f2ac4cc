// Package pipeline owns the whole source-to-microcode path of the
// visual programming environment as a sequence of explicit, observable
// passes: parse → build-diagram → check → codegen → validate. Each
// pass reports problems as typed diag.Diagnostic records, each run
// records per-pass wall-clock timings, and whole compilations are
// memoized in a content-addressed Cache keyed by the semantic inputs
// (machine configuration plus source statements, editor script or
// diagram document) — the same self-invalidating design as the
// simulator's decoded-instruction plan cache.
//
// compiler.Compile/CompileProgram, codegen generation, the solvers'
// editor scripts and the interactive editor's re-checks are all
// clients of this package's stages; the package composes them without
// changing what they emit — a pipeline compile is bit-identical to
// calling the stages by hand.
package pipeline

import (
	"strings"
	"time"

	"repro/internal/arch"
	"repro/internal/checker"
	"repro/internal/codegen"
	"repro/internal/compiler"
	"repro/internal/diag"
	"repro/internal/diagram"
	"repro/internal/editor"
	"repro/internal/microcode"
	"repro/internal/obs"
)

// State is the working set a run threads through its passes: inputs on
// top, pass products below. Each pass reads what earlier passes wrote.
type State struct {
	// Source inputs (CompileSource).
	Stmts []string
	Opt   compiler.Options
	// Editor-script input (CompileScript).
	Script string

	// Document input (CompileDocument) or the build-diagram product.
	Doc *diagram.Document

	// Parse product.
	Parsed []*compiler.Stmt
	// Build product: per-statement mapping statistics.
	StmtInfo []*compiler.Result
	// Check product: every finding (warnings included).
	Diags diag.Diagnostics
	// Codegen/validate product.
	Prog *microcode.Program
	Rep  *codegen.Report
}

// Pass is one observable stage of a compilation.
type Pass interface {
	// Name is the stable pass name used in timings ("parse",
	// "build-diagram", "check", "codegen", "validate").
	Name() string
	// Run advances the state; a non-nil error aborts the run and is
	// recorded as a diagnostic.
	Run(pl *Pipeline, st *State) error
}

// passFunc adapts a function to the Pass interface.
type passFunc struct {
	name string
	run  func(pl *Pipeline, st *State) error
}

func (p passFunc) Name() string                      { return p.name }
func (p passFunc) Run(pl *Pipeline, st *State) error { return p.run(pl, st) }

// PassTiming is one pass's wall-clock cost within a run.
type PassTiming struct {
	Name     string
	Duration time.Duration
}

// Result is the outcome of one pipeline run.
type Result struct {
	// Doc is the diagram document (input or built from source).
	Doc *diagram.Document
	// Prog is the validated microcode program.
	Prog *microcode.Program
	// Rep is the generator's report (hardware maps, fill cycles).
	Rep *codegen.Report
	// Diags collects every finding from every pass, warnings included.
	Diags diag.Diagnostics
	// Stmts holds per-statement mapping statistics for source compiles.
	Stmts []*compiler.Result
	// Passes records per-pass wall-clock timings, in run order.
	Passes []PassTiming
	// CacheHit reports whether the run was served from the compile
	// cache (Passes then holds the timings of the run that filled the
	// entry).
	CacheHit bool
}

// Instrs returns copies of the standalone instructions of the given
// pipelines: each is the instruction codegen.Generator.Pipeline returns
// for that pipeline (sequencer set to halt, so sim.Node.Exec runs it
// alone), before codegen clones it into flow order. Only pipelines the
// document's control flow references are elaborated.
func (r *Result) Instrs(pipes ...int) ([]*microcode.Instr, error) {
	out := make([]*microcode.Instr, len(pipes))
	for i, id := range pipes {
		for _, pi := range r.Rep.Pipes {
			if pi.Pipe == id {
				out[i] = pi.Instr.Clone()
				break
			}
		}
		if out[i] == nil {
			return nil, diag.Errorf(diag.RuleFlowGen, "pipeline: document %q elaborated no pipeline %d", r.Doc.Name, id)
		}
	}
	return out, nil
}

// Pipeline orchestrates the passes over one machine description. It is
// safe for concurrent compiles.
type Pipeline struct {
	Inv *arch.Inventory
	Gen *codegen.Generator
	Chk *checker.Checker
	// ChkCache memoizes per-pipeline check results; the same cache an
	// interactive editor uses for incremental re-checks.
	ChkCache *checker.CheckCache
	// Cache memoizes whole compilations by content address. Nil
	// disables compile caching.
	Cache *Cache
	// Obs, when non-nil, routes pass runs and compile-cache probes into
	// the unified observability layer: a "pipeline.pass.<name>" counter
	// and ".us" wall-clock histogram per pass, one span per pass on
	// tracer shard 0, and "pipeline.cache.hit"/".miss" counters. Pass
	// timings are host wall time — unlike the engine's simulated-cycle
	// metrics they vary run to run, so differential comparisons exclude
	// the ".us" histograms.
	Obs *obs.Obs
}

// New returns a pipeline for the inventory with compile caching
// enabled and its own generator and checker.
func New(inv *arch.Inventory) *Pipeline {
	gen := codegen.New(inv)
	return &Pipeline{
		Inv:      inv,
		Gen:      gen,
		Chk:      gen.Chk,
		ChkCache: checker.NewCheckCache(),
		Cache:    NewCache(),
	}
}

// run executes the passes in order, timing each and converting a pass
// failure into a diagnostic on the result.
func (pl *Pipeline) run(st *State, passes []Pass) (*Result, error) {
	res := &Result{}
	var failed error
	var runTS int64 // span timeline: μs into this run
	for _, p := range passes {
		t0 := time.Now()
		err := p.Run(pl, st)
		d := time.Since(t0)
		res.Passes = append(res.Passes, PassTiming{Name: p.Name(), Duration: d})
		if o := pl.Obs; o != nil {
			us := d.Microseconds()
			o.Inc("pipeline.pass." + p.Name())
			o.Observe("pipeline.pass."+p.Name()+".us", us)
			o.Span(0, "pipeline", p.Name(), runTS, us, nil)
			runTS += us
		}
		if err != nil {
			if _, isCheck := err.(*codegen.CheckError); !isCheck {
				// Check failures already appended their findings; every
				// other pass error becomes one typed record.
				st.Diags = append(st.Diags, diag.AsDiagnostic(err, diag.RuleProgram))
			}
			failed = err
			break
		}
	}
	res.Doc = st.Doc
	res.Prog = st.Prog
	res.Rep = st.Rep
	res.Diags = st.Diags
	res.Stmts = st.StmtInfo
	return res, failed
}

// --- The passes ---

func parsePass() Pass {
	return passFunc{"parse", func(pl *Pipeline, st *State) error {
		parsed, err := compiler.ParseProgram(st.Stmts)
		if err != nil {
			return err
		}
		st.Parsed = parsed
		return nil
	}}
}

func buildPass() Pass {
	return passFunc{"build-diagram", func(pl *Pipeline, st *State) error {
		out, err := compiler.BuildProgram(st.Parsed, pl.Inv, st.Opt)
		if err != nil {
			return err
		}
		st.Doc = out.Doc
		st.StmtInfo = out.Stmts
		return nil
	}}
}

func checkPass() Pass {
	return passFunc{"check", func(pl *Pipeline, st *State) error {
		var ds []checker.Diagnostic
		if pl.ChkCache != nil {
			ds = pl.ChkCache.CheckDocument(pl.Chk, st.Doc)
		} else {
			ds = pl.Chk.CheckDocument(st.Doc)
		}
		st.Diags = append(st.Diags, ds...)
		if es := checker.Errors(ds); len(es) > 0 {
			// The same error type direct codegen clients receive.
			return &codegen.CheckError{Diags: es}
		}
		return nil
	}}
}

func codegenPass() Pass {
	return passFunc{"codegen", func(pl *Pipeline, st *State) error {
		prog, rep, err := pl.Gen.Lower(st.Doc)
		if err != nil {
			return err
		}
		rep.Warnings = st.Diags
		st.Prog = prog
		st.Rep = rep
		return nil
	}}
}

func validatePass() Pass {
	return passFunc{"validate", func(pl *Pipeline, st *State) error {
		return pl.Gen.Validate(st.Prog)
	}}
}

// scriptPass is the build-diagram pass for an editor script: the
// commands drive a fresh editor, exactly as a user at the visual
// environment would, and the resulting document moves on to check.
func scriptPass() Pass {
	return passFunc{"build-diagram", func(pl *Pipeline, st *State) error {
		ed := editor.New(pl.Inv, "script")
		if _, err := ed.ExecScript(strings.NewReader(st.Script), false); err != nil {
			return err
		}
		st.Doc = ed.Doc
		return nil
	}}
}

// compile serves a run from the compile cache under key when it can,
// else runs the passes and caches a success. An empty key (no cache, or
// an input that could not be hashed) compiles uncached.
func (pl *Pipeline) compile(key string, st *State, passes []Pass) (*Result, error) {
	if key != "" {
		if res, ok := pl.Cache.lookup(key); ok {
			pl.Obs.Inc("pipeline.cache.hit")
			return res, nil
		}
		pl.Obs.Inc("pipeline.cache.miss")
	}
	res, err := pl.run(st, passes)
	if err == nil && key != "" {
		pl.Cache.store(key, res)
	}
	return res, err
}

// CompileSource compiles stencil statements to validated microcode:
// parse → build-diagram → check → codegen → validate, served from the
// compile cache when the same (config, statements, grid, planes) were
// compiled before. The returned Result always carries the diagnostics;
// err is non-nil when a pass failed.
func (pl *Pipeline) CompileSource(stmts []string, opt compiler.Options) (*Result, error) {
	key := ""
	if pl.Cache != nil {
		key = sourceCacheKey(pl.Inv.Cfg, stmts, opt)
	}
	return pl.compile(key, &State{Stmts: stmts, Opt: opt},
		[]Pass{parsePass(), buildPass(), checkPass(), codegenPass(), validatePass()})
}

// CompileScript compiles an editor command script to validated
// microcode: build-diagram (the script run in a fresh editor) → check →
// codegen → validate, cached by config plus script text. Identical
// scripts — such as the equal slabs of a partitioned solve — therefore
// build and compile once per Pipeline.
func (pl *Pipeline) CompileScript(script string) (*Result, error) {
	key := ""
	if pl.Cache != nil {
		key = scriptCacheKey(pl.Inv.Cfg, script)
	}
	return pl.compile(key, &State{Script: script},
		[]Pass{scriptPass(), checkPass(), codegenPass(), validatePass()})
}

// CompileDocument compiles a diagram document to validated microcode:
// check → codegen → validate, with the same caching contract as
// CompileSource (keyed by config plus the document's semantic JSON).
func (pl *Pipeline) CompileDocument(doc *diagram.Document) (*Result, error) {
	key := ""
	if pl.Cache != nil {
		key, _ = documentCacheKey(pl.Inv.Cfg, doc) // unhashable: compile uncached
	}
	return pl.compile(key, &State{Doc: doc},
		[]Pass{checkPass(), codegenPass(), validatePass()})
}
