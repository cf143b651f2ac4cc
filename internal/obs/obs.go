// Package obs is the unified observability layer of the reproduction:
// one metrics registry (counters, gauges, log₂-bucketed histograms,
// all with atomic fast paths) and one structured event tracer
// (ring-buffered per-worker span shards) shared by every solver path —
// the node simulator, the distributed engine loop, the compilation
// pipeline and the multi-node drivers.
//
// The paper's environment exists to make program execution on the
// Navier-Stokes Computer visible; this package is the runtime half of
// that idea. Every phase of a distributed solve (dispatch, exchange,
// reduce, checkpoint), every node-level exception and every compile
// pass reports through the same API, and two exporters turn the
// collected state into artifacts: an expvar-style JSON metrics dump
// and a Chrome trace_event stream that loads directly in
// chrome://tracing or Perfetto.
//
// Two properties are load-bearing and tested:
//
//   - Disabled is free. A nil *Obs is the off state; every method is
//     nil-receiver safe and reduces to one pointer test, so
//     instrumented hot paths cost nothing when observability is off
//     (BenchmarkObsOverhead pins this below 2% wall overhead).
//   - Enabled is inert. Instrumentation only reads simulated state —
//     spans carry simulated cycles, counters count events — so
//     simulated clocks, residuals and grids are bit-identical with
//     observability on or off, at every worker count. The differential
//     harness (internal/obs/difftest) turns this into an oracle: metric
//     totals must agree across worker counts exactly like residual
//     series and clocks.
package obs

// Obs bundles a metrics registry and an event tracer into one handle
// drivers thread through their configuration. The nil *Obs is the
// disabled state: every method no-ops.
type Obs struct {
	Reg *Registry
	Tr  *Tracer
}

// Default tracer geometry: one shard per plausible worker, enough ring
// slots that a full solve's phase spans survive, bounded so a
// million-sweep run stays laptop-sized.
const (
	DefaultShards  = 16
	DefaultRingCap = 4096
)

// New returns an enabled Obs with the default tracer geometry.
func New() *Obs { return NewWith(DefaultShards, DefaultRingCap) }

// NewWith returns an enabled Obs with `shards` span rings of
// `ringCap` slots each.
func NewWith(shards, ringCap int) *Obs {
	return &Obs{Reg: NewRegistry(), Tr: NewTracer(shards, ringCap)}
}

// Inc bumps counter `name` by one. Nil-safe.
func (o *Obs) Inc(name string) {
	if o == nil {
		return
	}
	o.Reg.Counter(name).Inc()
}

// Add bumps counter `name` by d. Nil-safe.
func (o *Obs) Add(name string, d int64) {
	if o == nil {
		return
	}
	o.Reg.Counter(name).Add(d)
}

// Set sets gauge `name` to v. Nil-safe.
func (o *Obs) Set(name string, v int64) {
	if o == nil {
		return
	}
	o.Reg.Gauge(name).Set(v)
}

// Observe records one histogram sample. Nil-safe.
func (o *Obs) Observe(name string, v int64) {
	if o == nil {
		return
	}
	o.Reg.Histogram(name).Observe(v)
}

// Span records one completed span on the tracer. Nil-safe.
func (o *Obs) Span(shard int, cat, name string, ts, dur int64, args map[string]int64) {
	if o == nil {
		return
	}
	o.Tr.Emit(shard, Span{Cat: cat, Name: name, TS: ts, Dur: dur, Args: args})
}

// Event records an instantaneous event (a span of zero duration) with
// an optional cause string — the trap/fault spelling the Chrome trace
// shows on hover. Nil-safe.
func (o *Obs) Event(shard int, cat, name string, ts int64, cause string, args map[string]int64) {
	if o == nil {
		return
	}
	o.Tr.Emit(shard, Span{Cat: cat, Name: name, TS: ts, Cause: cause, Args: args})
}
