package diag

// Front-end diagnostic codes. The checker owns the R001–R024 block
// (see internal/checker); this block extends it with the codes the
// rest of the source-to-microcode path emits. Codes are stable
// strings: tests, the editor message strip and -diag-json consumers
// key on them, so a code is never renumbered or reused. Every code
// declared here must be produced by at least one test — the rule-
// coverage gate in internal/checker/coverage_frontend_test.go scans
// this file and fails the build otherwise.
const (
	// RuleParseSyntax marks a source statement the stencil-language
	// parser rejects (unexpected token, malformed number or shift,
	// trailing input).
	RuleParseSyntax = "R030"
	// RuleConstExpr marks an expression that folds to a constant or
	// references no grid variables — there is nothing to stream.
	RuleConstExpr = "R031"
	// RuleNoPlane marks a referenced variable with no memory-plane
	// assignment in the compile options.
	RuleNoPlane = "R032"
	// RuleCapacity marks a statement whose stencil shape exceeds the
	// machine: too many shifted variables for the SDUs, too many taps,
	// a span beyond the SDU buffer, or more operations than the node's
	// function units.
	RuleCapacity = "R033"
	// RuleGenResource marks microcode generation running out of a
	// physical resource (ALSs, shift/delay units, constant-pool slots).
	RuleGenResource = "R034"
	// RuleGenStruct marks a structural inconsistency found while
	// lowering a checked document (a write DMA without a wire, an
	// unconfigured tap, a non-producing pad used as a source, an
	// undeclared variable reaching address resolution).
	RuleGenStruct = "R035"
	// RuleFlowGen marks control-flow lowering errors: a document with
	// no pipelines, or a flow op falling off the end of the program.
	RuleFlowGen = "R036"
	// RuleDiagram marks diagram-model structural errors: unknown
	// pipelines, icons or pads, duplicate icon names, wiring an input
	// as a source, driving a pad twice, negative wire delays.
	RuleDiagram = "R037"
	// RuleProgram marks program-level compile errors: an empty
	// statement list or an invalid grid.
	RuleProgram = "R038"
	// RuleDocIO marks a semantic document that failed to decode.
	RuleDocIO = "R039"
	// RuleFaultPlan marks a malformed -faults/-kill fault-plan spec:
	// an unparseable token, a bad phase/kind/option, or duplicate
	// events targeting the same (sweep, phase, rank).
	RuleFaultPlan = "R040"
	// RuleNegativeCount marks a negative solver count: a fixed sweep
	// count, a hot-spare pool size or a checkpoint stride below zero.
	RuleNegativeCount = "R041"
)
