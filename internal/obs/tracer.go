package obs

import "sync"

// This file is the tracing half of the layer: structured spans in
// fixed-size per-worker ring buffers. Each shard is owned by one
// logical worker (a rank, a compile worker, the host loop), so shards
// never contend in the steady state; the per-shard mutex exists only
// to make cross-worker misuse safe, not as a throughput path. Rings
// overwrite their oldest entries when full — tracing a million-sweep
// solve keeps the tail, plus an exact count of what was dropped —
// mirroring how sim.Node bounds its trap log.

// Span is one traced interval or event. TS and Dur are in the
// producer's time base: simulated cycles for engine and node spans
// (deterministic at every worker count), wall microseconds for
// compile-pipeline passes. A zero Dur renders as an instantaneous
// event in the Chrome trace.
type Span struct {
	// Cat groups spans by subsystem ("engine", "sim", "pipeline").
	Cat string
	// Name is the phase or event name ("dispatch", "trap", "codegen").
	Name string
	// TS is the start time, Dur the duration, in the producer's
	// time base.
	TS, Dur int64
	// Cause carries the classified reason of an exceptional event — a
	// trap kind, a fault spelling — so context is never silently
	// dropped.
	Cause string
	// Args are optional structured details (sweep, rank, element...).
	Args map[string]int64
}

type shard struct {
	mu    sync.Mutex
	ring  []Span
	total int64 // spans ever emitted to this shard
}

// Tracer collects spans into per-worker ring buffers.
type Tracer struct {
	shards []shard
	cap    int
}

// NewTracer returns a tracer with `shards` rings of `ringCap` slots
// each (minimums of 1 and 16 are enforced).
func NewTracer(shards, ringCap int) *Tracer {
	if shards < 1 {
		shards = 1
	}
	if ringCap < 16 {
		ringCap = 16
	}
	return &Tracer{shards: make([]shard, shards), cap: ringCap}
}

// Emit records a span on the given shard (out-of-range shards wrap, so
// callers may pass a rank directly).
func (t *Tracer) Emit(shardNo int, sp Span) {
	s := &t.shards[(shardNo%len(t.shards)+len(t.shards))%len(t.shards)]
	s.mu.Lock()
	if len(s.ring) < t.cap {
		s.ring = append(s.ring, sp)
	} else {
		s.ring[s.total%int64(t.cap)] = sp
	}
	s.total++
	s.mu.Unlock()
}

// Spans returns every retained span, shard by shard, oldest first
// within each shard — a deterministic order whenever each shard had a
// single producer.
func (t *Tracer) Spans() []Span {
	var out []Span
	for i := range t.shards {
		s := &t.shards[i]
		s.mu.Lock()
		if s.total <= int64(t.cap) {
			out = append(out, s.ring...)
		} else {
			head := int(s.total % int64(t.cap))
			out = append(out, s.ring[head:]...)
			out = append(out, s.ring[:head]...)
		}
		s.mu.Unlock()
	}
	return out
}

// Dropped reports how many spans were overwritten across all shards.
func (t *Tracer) Dropped() int64 {
	var n int64
	for i := range t.shards {
		s := &t.shards[i]
		s.mu.Lock()
		if over := s.total - int64(len(s.ring)); over > 0 {
			n += over
		}
		s.mu.Unlock()
	}
	return n
}
