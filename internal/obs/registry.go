package obs

import (
	"math"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
)

// This file is the metrics half of the layer: named counters, gauges
// and histograms behind one registry. Registration (the name → metric
// lookup) takes a read lock and happens once per call site per name in
// practice — hot paths hold the returned pointer or pay one map read —
// while every update is a plain atomic, so concurrent ranks never
// serialize on a metric.

// Counter is a monotonically increasing count.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds d (d may be any sign; the engine charges deltas).
func (c *Counter) Add(d int64) { c.v.Add(d) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a last-writer-wins level.
type Gauge struct{ v atomic.Int64 }

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Value returns the last stored value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// histBuckets is the bucket count of a histogram: bucket i holds
// samples whose value has bit length i (so bucket 0 is v <= 0, bucket
// 1 is v == 1, bucket 11 is 1024–2047, ...). 64 covers every int64.
const histBuckets = 65

// Histogram accumulates int64 samples into log₂ buckets with exact
// count and sum. All updates are atomic adds; totals are therefore
// deterministic under any interleaving — the property the differential
// harness leans on.
type Histogram struct {
	count   atomic.Int64
	sum     atomic.Int64
	buckets [histBuckets]atomic.Int64
}

// Observe records one sample.
func (h *Histogram) Observe(v int64) {
	h.count.Add(1)
	h.sum.Add(v)
	i := 0
	if v > 0 {
		i = bits.Len64(uint64(v))
	}
	h.buckets[i].Add(1)
}

// Count returns the number of samples.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all samples.
func (h *Histogram) Sum() int64 { return h.sum.Load() }

// HistBucket is one non-empty log₂ bucket: N samples with values at
// most Le (inclusive upper bound 2^i − 1).
type HistBucket struct {
	Le int64 `json:"le"`
	N  int64 `json:"n"`
}

// HistSnapshot is a histogram's state at one instant; buckets appear
// in ascending bound order.
type HistSnapshot struct {
	Count   int64        `json:"count"`
	Sum     int64        `json:"sum"`
	Buckets []HistBucket `json:"buckets,omitempty"`
}

func (h *Histogram) snapshot() HistSnapshot {
	s := HistSnapshot{Count: h.count.Load(), Sum: h.sum.Load()}
	for i := range h.buckets {
		if n := h.buckets[i].Load(); n != 0 {
			hi := int64(0)
			switch {
			case i >= 63:
				hi = math.MaxInt64
			case i > 0:
				hi = int64(1)<<uint(i) - 1
			}
			s.Buckets = append(s.Buckets, HistBucket{Le: hi, N: n})
		}
	}
	return s
}

// Registry is a namespace of metrics. The zero value is not usable;
// construct with NewRegistry.
type Registry struct {
	mu       sync.RWMutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.RLock()
	c := r.counters[name]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c = r.counters[name]; c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.RLock()
	g := r.gauges[name]
	r.mu.RUnlock()
	if g != nil {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g = r.gauges[name]; g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.RLock()
	h := r.hists[name]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h = r.hists[name]; h == nil {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// Snapshot is the registry's full state at one instant, with stable
// map keys (the JSON exporter sorts them).
type Snapshot struct {
	Counters   map[string]int64        `json:"counters,omitempty"`
	Gauges     map[string]int64        `json:"gauges,omitempty"`
	Histograms map[string]HistSnapshot `json:"histograms,omitempty"`
}

// Snapshot captures every metric's current value.
func (r *Registry) Snapshot() Snapshot {
	r.mu.RLock()
	defer r.mu.RUnlock()
	s := Snapshot{}
	if len(r.counters) > 0 {
		s.Counters = make(map[string]int64, len(r.counters))
		for n, c := range r.counters {
			s.Counters[n] = c.Value()
		}
	}
	if len(r.gauges) > 0 {
		s.Gauges = make(map[string]int64, len(r.gauges))
		for n, g := range r.gauges {
			s.Gauges[n] = g.Value()
		}
	}
	if len(r.hists) > 0 {
		s.Histograms = make(map[string]HistSnapshot, len(r.hists))
		for n, h := range r.hists {
			s.Histograms[n] = h.snapshot()
		}
	}
	return s
}

// Totals flattens the registry into one deterministic map: counters
// under "counter/<name>", gauges under "gauge/<name>", histograms as
// "hist/<name>.count" and "hist/<name>.sum". This is the signature the
// differential harness compares across worker counts: every update is
// a commutative atomic add of deterministic quantities, so totals must
// be bit-identical however the work was scheduled.
func (r *Registry) Totals() map[string]int64 {
	s := r.Snapshot()
	out := map[string]int64{}
	for n, v := range s.Counters {
		out["counter/"+n] = v
	}
	for n, v := range s.Gauges {
		out["gauge/"+n] = v
	}
	for n, h := range s.Histograms {
		out["hist/"+n+".count"] = h.Count
		out["hist/"+n+".sum"] = h.Sum
	}
	return out
}

// Names returns every registered metric name, sorted, for tests and
// reports.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	var out []string
	for n := range r.counters {
		out = append(out, n)
	}
	for n := range r.gauges {
		out = append(out, n)
	}
	for n := range r.hists {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
