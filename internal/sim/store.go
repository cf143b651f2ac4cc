package sim

import (
	"encoding/binary"
	"sync"
	"sync/atomic"

	"repro/internal/arch"
	"repro/internal/microcode"
)

// Store is the decoded state of one machine: everything derived from
// the configuration and the instruction stream rather than from a
// board's architectural state. The NSC is an ensemble of identical
// boards and one instruction is one complete pipeline configuration,
// so the machine description (Inventory, Format) and the compiled
// plans belong to the machine and are built once, however many boards
// run them. A Store is safe for concurrent use by all of its nodes.
type Store struct {
	Cfg arch.Config
	Inv *arch.Inventory
	F   *microcode.Format

	// plans is the content-addressed plan table: instruction bit
	// pattern → compiled ExecPlan. Plans and their kernels are
	// read-only once built. A miss compiles under the write lock after
	// probing again, so every distinct instruction compiles exactly once
	// and the hit/miss totals do not depend on how many nodes run at
	// once.
	mu           sync.RWMutex
	plans        map[string]*ExecPlan
	hits, misses atomic.Int64

	// free holds the idle run scratch. A dispatch takes one for its
	// duration, so the pool never holds more working sets than nodes
	// that ever ran at once, each grown to the largest plan it served.
	freeMu sync.Mutex
	free   []*runScratch
}

// NewStore builds the decoded machine description for cfg.
func NewStore(cfg arch.Config) (*Store, error) {
	inv, err := arch.NewInventory(cfg)
	if err != nil {
		return nil, err
	}
	f, err := microcode.NewFormat(cfg)
	if err != nil {
		return nil, err
	}
	return &Store{Cfg: cfg, Inv: inv, F: f, plans: make(map[string]*ExecPlan)}, nil
}

// NewNode builds a board over the store: fresh planes, caches and
// registers sharing the store's machine description and plans.
func (s *Store) NewNode() *Node {
	cfg := s.Cfg
	n := &Node{Cfg: cfg, Inv: s.Inv, F: s.F, store: s, RedReg: make([]float64, cfg.TotalFUs)}
	for i := 0; i < cfg.MemPlanes; i++ {
		n.Mem = append(n.Mem, NewPlane(cfg.PlaneWords()))
	}
	for i := 0; i < cfg.CachePlanes; i++ {
		n.Cache = append(n.Cache, NewDoubleBuffer(cfg.CacheWords()))
	}
	return n
}

// PlanCacheStats reports a store's compiled-plan table behaviour:
// lookups served from the table, distinct instructions compiled, and
// resident plans.
type PlanCacheStats struct {
	Hits    int64
	Misses  int64
	Entries int
}

// Add accumulates o into s.
func (s *PlanCacheStats) Add(o PlanCacheStats) {
	s.Hits += o.Hits
	s.Misses += o.Misses
	s.Entries += o.Entries
}

// Stats reports the plan table's hit/miss counters and resident entry
// count, summed over every node of the machine.
func (s *Store) Stats() PlanCacheStats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return PlanCacheStats{Hits: s.hits.Load(), Misses: s.misses.Load(), Entries: len(s.plans)}
}

// plan returns the compiled plan for in, decoding it at most once per
// distinct instruction content. The key is the instruction's exact bit
// pattern, so the table is self-invalidating: any field mutation
// produces a different key and a fresh decode. The key is serialized
// into the scratch's buffer and probed with an in-place string
// conversion, so the hit path — every dispatch of an iterative solver
// after the first — performs no allocation.
func (s *Store) plan(in *microcode.Instr, sc *runScratch) (*ExecPlan, error) {
	if need := 8 * len(in.W); cap(sc.key) < need {
		sc.key = make([]byte, need)
	}
	key := sc.key[:8*len(in.W)]
	for i, lane := range in.W {
		binary.LittleEndian.PutUint64(key[8*i:], lane)
	}
	s.mu.RLock()
	pl, ok := s.plans[string(key)]
	s.mu.RUnlock()
	if ok {
		s.hits.Add(1)
		return pl, nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if pl, ok := s.plans[string(key)]; ok {
		s.hits.Add(1)
		return pl, nil
	}
	s.misses.Add(1)
	pl, err := compilePlan(s.Cfg, s.Inv, in)
	if err != nil {
		return nil, err
	}
	s.plans[string(key)] = pl
	return pl, nil
}

// acquire takes an idle run scratch from the pool, or a fresh one.
func (s *Store) acquire() *runScratch {
	s.freeMu.Lock()
	defer s.freeMu.Unlock()
	if k := len(s.free); k > 0 {
		sc := s.free[k-1]
		s.free = s.free[:k-1]
		return sc
	}
	return new(runScratch)
}

// release returns a scratch to the pool.
func (s *Store) release(sc *runScratch) {
	s.freeMu.Lock()
	s.free = append(s.free, sc)
	s.freeMu.Unlock()
}

// redState is one reduction accumulator. The accumulators are
// per-execution state, not plan state; they live in runScratch so the
// run layer never allocates them per dispatch.
type redState struct {
	acc   float64
	accOK bool
}

// runScratch is one dispatch's working set: one value/valid lane per
// producer slot, T cycles long, stored slot-major in a single
// contiguous array (lane s occupies val[s*T : (s+1)*T]), plus the plan
// table's key buffer. A dispatch holds it exclusively, so two nodes
// executing the same plan concurrently never share it. Reuse across
// plans is safe without zeroing: every producer lane is written at
// every cycle before any same-run read of that cycle.
type runScratch struct {
	val []float64 // slot-major: val[slot*T+c]
	ok  []bool    // slot-major: ok[slot*T+c]

	// reds holds the pooled reduction accumulators, reset at the top
	// of every execution.
	reds []redState

	// opv/opok are the kernel's operand staging lanes (T cycles each):
	// each functional-unit micro-op shifts or broadcasts its operands
	// into these before the branch-free apply loop runs.
	opv  [2][]float64
	opok [2][]bool

	// key is the plan-table key serialization buffer.
	key []byte
}

// fit grows the scratch to hold pl's working set.
func (sc *runScratch) fit(pl *ExecPlan) {
	if need := pl.slots * pl.T; len(sc.val) < need {
		sc.val = make([]float64, need)
		sc.ok = make([]bool, need)
	}
	if len(sc.reds) < pl.nReds {
		sc.reds = make([]redState, pl.nReds)
	}
	for i := range sc.opv {
		if len(sc.opv[i]) < pl.T {
			sc.opv[i] = make([]float64, pl.T)
			sc.opok[i] = make([]bool, pl.T)
		}
	}
}

// lane returns producer slot s's value and validity lanes.
func (sc *runScratch) lane(T, s int) ([]float64, []bool) {
	return sc.val[s*T : (s+1)*T : (s+1)*T], sc.ok[s*T : (s+1)*T : (s+1)*T]
}

// sample reads producer slot `slot` at cycle c; cycles outside [0,T)
// (pipeline lead-in seen through a delay, or an unconnected operand)
// read as zero/invalid.
func (sc *runScratch) sample(T, slot, c int) (float64, bool) {
	if slot < 0 || c < 0 || c >= T {
		return 0, false
	}
	return sc.val[slot*T+c], sc.ok[slot*T+c]
}
